"""Architecture configuration objects and the paper's reference presets.

The paper evaluates two setups of an NGMP-like (Cobham Gaisler LEON4) 4-core
multicore (Section 5.1):

* ``ref`` — IL1/DL1 latency of 1 cycle, 16KB 4-way 32B-line L1 caches,
  a shared round-robin bus to a 256KB 4-way L2 partitioned one way per core,
  a 9-cycle bus occupancy per L2 load hit (6-cycle L2 hit latency plus
  3 cycles of transfer and arbitration handover), and a DDR2-667-like memory
  behind a memory controller.  With four cores this gives
  ``ubd = (4 - 1) * 9 = 27`` cycles.
* ``var`` — identical except the L1 latency is 4 cycles, which raises the
  injection time of every bus-accessing instruction from 1 to 4 cycles.

Configurations are plain frozen dataclasses validated at construction time so
that an invalid geometry fails loudly instead of producing silently wrong
timing numbers.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Mapping, Tuple

from .errors import ConfigurationError
from .registry import registry_backed_names


def _require(condition: bool, message: str) -> None:
    """Raise :class:`ConfigurationError` with ``message`` unless ``condition``."""
    if not condition:
        raise ConfigurationError(message)


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


#: Arbitration policies whose worst case fair-round reasoning bounds: every
#: competitor is served at most once before the victim.  Fixed priority can
#: starve a port unboundedly and TDMA waits on the slot schedule rather than
#: the competitor count, so Equation 1 (and the per-resource terms built on
#: the same argument) cover only these two.
FAIR_ARBITRATION_POLICIES = ("round_robin", "fifo")

#: Arbitration policies shipped with the simulator.  The authoritative set
#: is the registry in :mod:`repro.sim.arbiter` (policies self-register with
#: the ``@register_arbiter`` decorator); this tuple lists the built-ins for
#: CLI choices and documentation, and a tier-1 test pins the two in sync.
ARBITRATION_POLICIES = ("round_robin", "fifo", "fixed_priority", "tdma")


#: Names accepted by ``BusConfig.arbitration``/``TopologyConfig``.  Delegates
#: to the arbiter registry (lazily, through
#: :func:`repro.registry.registry_backed_names`, to keep ``repro.config`` the
#: bottom layer) so a policy registered at runtime is immediately
#: constructible through a configuration; falls back to the built-in tuple
#: while :mod:`repro.sim.arbiter` is still initialising.
_known_arbitrations = registry_backed_names(
    "repro.sim.arbiter", "registered_arbiters", ARBITRATION_POLICIES
)


#: Simulation engines shipped with the simulator.  The authoritative set is
#: the registry in :mod:`repro.sim.scheduler` (engines self-register with
#: the ``@register_engine`` decorator); this tuple lists the built-ins for
#: documentation, and a tier-1 test pins the two in sync.  ``"stepped"`` is
#: the cycle-by-cycle oracle loop; ``"event"`` is the event-driven fast
#: path that skips the clock to the next component horizon.  ``"replay"``
#: captures each core's demand-request trace once and streams it through
#: the live interconnect on every later run (:mod:`repro.sim.trace`),
#: falling back per core on trace-unsafe programs (stores, timeouts,
#: aperiodic contenders); its inner loop is generated for the configured
#: topology chain and arbiter set (:mod:`repro.sim.codegen`) and falls back
#: to the event scheduler for registered entries the generator does not
#: know.  All three are cycle-exact: they produce identical traces, PMC
#: counts and delay histograms, so the engine choice is a pure speed knob
#: and never participates in result digests.
ENGINES = ("stepped", "event", "replay")


#: Names accepted by ``ArchConfig.engine`` (see :data:`_known_arbitrations`).
_known_engines = registry_backed_names("repro.sim.scheduler", "registered_engines", ENGINES)


#: Shared-resource topologies shipped with the simulator.  Like
#: :data:`ARBITRATION_POLICIES`, the authoritative set is the registry in
#: :mod:`repro.sim.topology`; this tuple lists the built-ins and a tier-1
#: test pins the two in sync.  ``bus_only`` is the paper's platform — one
#: arbitrated bus in front of a FIFO memory controller; ``bus_bank_queues``
#: chains the bus into per-DRAM-bank arbitrated memory-controller queues;
#: ``split_bus`` splits the bus NGMP-style into an arbitrated request
#: channel (feeding the bank queues) and a separate arbitrated response
#: channel returning the data.
TOPOLOGIES = ("bus_only", "bus_bank_queues", "split_bus")

#: Names accepted by ``TopologyConfig.name`` (see :data:`_known_arbitrations`).
_known_topologies = registry_backed_names("repro.sim.topology", "registered_topologies", TOPOLOGIES)


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and policy of one cache level.

    Attributes:
        size_bytes: total capacity in bytes.
        ways: associativity (1 means direct mapped).
        line_size: cache line size in bytes.
        replacement: ``"lru"`` or ``"fifo"`` (the paper assumes LRU; FIFO is
            supported because the rsk construction explicitly covers both).
        write_policy: ``"write_through"`` or ``"write_back"``; the paper's
            DL1 is write-through.
        write_allocate: whether a store miss allocates a line.
        hit_latency: access latency in cycles (1 for ``ref``, 4 for ``var``).
    """

    size_bytes: int
    ways: int
    line_size: int = 32
    replacement: str = "lru"
    write_policy: str = "write_through"
    write_allocate: bool = False
    hit_latency: int = 1

    def __post_init__(self) -> None:
        _require(self.size_bytes > 0, "cache size must be positive")
        _require(self.ways > 0, "cache associativity must be positive")
        _require(_is_power_of_two(self.line_size), "line size must be a power of two")
        _require(
            self.size_bytes % (self.ways * self.line_size) == 0,
            "cache size must be a multiple of ways * line_size",
        )
        _require(
            _is_power_of_two(self.num_sets),
            "number of sets must be a power of two for simple index extraction",
        )
        _require(
            self.replacement in ("lru", "fifo"),
            f"unsupported replacement policy: {self.replacement!r}",
        )
        _require(
            self.write_policy in ("write_through", "write_back"),
            f"unsupported write policy: {self.write_policy!r}",
        )
        _require(self.hit_latency >= 1, "hit latency must be at least one cycle")

    @property
    def num_sets(self) -> int:
        """Number of sets in the cache."""
        return self.size_bytes // (self.ways * self.line_size)

    @property
    def way_size_bytes(self) -> int:
        """Capacity of a single way in bytes."""
        return self.size_bytes // self.ways

    @property
    def same_set_stride(self) -> int:
        """Address stride (bytes) that maps consecutive lines to the same set."""
        return self.num_sets * self.line_size


@dataclass(frozen=True)
class BusConfig:
    """Timing and arbitration of the shared processor-to-L2 bus.

    Attributes:
        arbitration: ``"round_robin"`` (the paper's policy), ``"fifo"``,
            ``"fixed_priority"`` or ``"tdma"``.
        transfer_latency: cycles of bus transfer plus arbitration handover
            charged to every granted transaction (3 in the paper's setup).
        tdma_slot: slot length in cycles, only used by the TDMA arbiter.
    """

    arbitration: str = "round_robin"
    transfer_latency: int = 3
    tdma_slot: int = 9

    def __post_init__(self) -> None:
        _require(
            self.arbitration in _known_arbitrations(),
            f"unsupported arbitration policy: {self.arbitration!r}",
        )
        _require(self.transfer_latency >= 1, "bus transfer latency must be >= 1")
        _require(self.tdma_slot >= 1, "TDMA slot must be >= 1 cycle")


@dataclass(frozen=True)
class TopologyConfig:
    """How the platform's shared resources are chained (the contention topology).

    The paper's platform is a single contention point: every request
    arbitrates once, for the bus (``bus_only``).  ``bus_bank_queues`` chains
    a second arbitrated stage behind it — per-DRAM-bank memory-controller
    queues, each with its *own* arbitration policy — so a request can
    contend twice: once for the bus, once for its bank.  ``split_bus``
    additionally splits the bus into its two transaction phases, NGMP
    split-transaction style: an arbitrated *request channel* in front of the
    bank queues and a separate arbitrated *response channel* carrying the
    data back, so an L2 miss can contend three times.  Topology builders are
    registered in :mod:`repro.sim.topology`; this configuration only names
    one and parameterises its memory-side and response-side arbitration.

    Attributes:
        name: registered topology name (``bus_only``, ``bus_bank_queues`` or
            ``split_bus``).
        mem_arbitration: arbitration policy of each per-bank memory queue
            (any registered arbiter; the classic stack is a round-robin bus
            over FIFO bank queues).  Ignored by ``bus_only``.
        mem_tdma_slot: slot length in cycles when ``mem_arbitration`` is
            ``tdma`` (one slot per core, like the bus TDMA arbiter).
        response_arbitration: arbitration policy of the response channel
            (one port per core).  Only used by ``split_bus``; the default
            FIFO serves responses in data-ready order, which is how a
            single shared return path behaves.
        response_tdma_slot: slot length in cycles when
            ``response_arbitration`` is ``tdma``.
    """

    name: str = "bus_only"
    mem_arbitration: str = "fifo"
    mem_tdma_slot: int = 40
    response_arbitration: str = "fifo"
    response_tdma_slot: int = 9

    def __post_init__(self) -> None:
        _require(
            self.name in _known_topologies(),
            f"unsupported topology: {self.name!r}",
        )
        _require(
            self.mem_arbitration in _known_arbitrations(),
            f"unsupported memory-queue arbitration policy: {self.mem_arbitration!r}",
        )
        _require(self.mem_tdma_slot >= 1, "memory TDMA slot must be >= 1 cycle")
        _require(
            self.response_arbitration in _known_arbitrations(),
            f"unsupported response-channel arbitration policy: "
            f"{self.response_arbitration!r}",
        )
        _require(self.response_tdma_slot >= 1, "response TDMA slot must be >= 1 cycle")

    @property
    def has_memory_queues(self) -> bool:
        """True when the memory controller is an arbitrated contention point."""
        return self.name != "bus_only"

    @property
    def has_response_channel(self) -> bool:
        """True when responses return on their own arbitrated channel."""
        return self.name == "split_bus"


@dataclass(frozen=True)
class L2Config:
    """Shared L2 cache configuration (way-partitioned among cores)."""

    cache: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=256 * 1024, ways=4, line_size=32, hit_latency=6
        )
    )
    partitioned: bool = True

    def __post_init__(self) -> None:
        _require(self.cache.ways >= 1, "L2 must have at least one way")

    @property
    def hit_latency(self) -> int:
        """L2 hit latency in cycles (6 in the paper's setup)."""
        return self.cache.hit_latency


@dataclass(frozen=True)
class DramConfig:
    """Simplified DDR2-667-style DRAM timing, expressed in core cycles.

    This is the substitute for DRAMsim2: a banked open-page model with
    activate / CAS / precharge latencies and a burst transfer time.  The
    defaults approximate a 2GB one-rank DDR2-667 with 4 banks and a 64-bit
    data bus delivering one 32-byte line per access, seen from a 200MHz core.
    """

    num_banks: int = 4
    row_size_bytes: int = 4096
    t_rcd: int = 9
    t_cas: int = 9
    t_rp: int = 9
    t_burst: int = 4
    controller_overhead: int = 2

    def __post_init__(self) -> None:
        _require(_is_power_of_two(self.num_banks), "number of banks must be a power of two")
        _require(_is_power_of_two(self.row_size_bytes), "row size must be a power of two")
        for name in ("t_rcd", "t_cas", "t_rp", "t_burst"):
            _require(getattr(self, name) >= 1, f"{name} must be >= 1")
        _require(self.controller_overhead >= 0, "controller overhead must be >= 0")

    @property
    def row_hit_latency(self) -> int:
        """Latency of an access that hits the open row."""
        return self.t_cas + self.t_burst + self.controller_overhead

    @property
    def row_miss_latency(self) -> int:
        """Latency of an access that must precharge and activate a new row."""
        return self.t_rp + self.t_rcd + self.t_cas + self.t_burst + self.controller_overhead


@dataclass(frozen=True)
class StoreBufferConfig:
    """Per-core store buffer configuration."""

    entries: int = 8

    def __post_init__(self) -> None:
        _require(self.entries >= 1, "store buffer needs at least one entry")


@dataclass(frozen=True)
class ArchConfig:
    """Complete description of one simulated multicore platform.

    The two presets used throughout the paper are available through
    :func:`reference_config` (``ref``) and :func:`variant_config` (``var``).
    """

    name: str = "ref"
    num_cores: int = 4
    freq_mhz: int = 200
    il1: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=16 * 1024, ways=4, hit_latency=1)
    )
    dl1: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=16 * 1024, ways=4, hit_latency=1)
    )
    l2: L2Config = field(default_factory=L2Config)
    bus: BusConfig = field(default_factory=BusConfig)
    dram: DramConfig = field(default_factory=DramConfig)
    store_buffer: StoreBufferConfig = field(default_factory=StoreBufferConfig)
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    nop_latency: int = 1
    alu_latency: int = 1
    engine: str = "event"

    def __post_init__(self) -> None:
        _require(
            self.engine in _known_engines(),
            f"unsupported simulation engine: {self.engine!r}; "
            f"registered: {list(_known_engines())}",
        )
        _require(self.num_cores >= 1, "need at least one core")
        _require(self.freq_mhz > 0, "frequency must be positive")
        _require(self.nop_latency >= 1, "nop latency must be >= 1")
        _require(self.alu_latency >= 1, "ALU latency must be >= 1")
        _require(
            self.il1.line_size == self.dl1.line_size == self.l2.cache.line_size,
            "all cache levels must share the same line size",
        )
        if self.l2.partitioned:
            _require(
                self.l2.cache.ways >= self.num_cores,
                "way-partitioned L2 needs at least one way per core",
            )

    # ------------------------------------------------------------------ #
    # Derived timing quantities used across the library.
    # ------------------------------------------------------------------ #
    @property
    def line_size(self) -> int:
        """Cache line size shared by all levels."""
        return self.dl1.line_size

    @property
    def bus_service_l2_hit(self) -> int:
        """Bus occupancy of one L2 load hit (``lbus`` in the paper)."""
        return self.bus.transfer_latency + self.l2.hit_latency

    @property
    def bus_service_store(self) -> int:
        """Bus occupancy of one write-through store reaching the L2."""
        return self.bus.transfer_latency + self.l2.hit_latency

    @property
    def bus_service_miss_request(self) -> int:
        """Bus occupancy of the request phase of an L2 load miss."""
        return self.bus.transfer_latency + self.l2.hit_latency

    @property
    def bus_service_response(self) -> int:
        """Bus occupancy of the response transfer of an L2 load miss."""
        return self.bus.transfer_latency

    @property
    def ubd(self) -> int:
        """Analytical upper-bound delay ``(Nc - 1) * lbus`` (Equation 1).

        This is the paper's *single-resource* bound: the bus term alone,
        valid for the preloaded-L2 experiments where no request travels past
        the L2.  Multi-resource topologies decompose into per-resource terms
        via :attr:`ubd_terms` / :attr:`end_to_end_ubd`.
        """
        return (self.num_cores - 1) * self.bus_service_l2_hit

    @property
    def has_composable_bounds(self) -> bool:
        """True when :attr:`ubd_terms` constitutes a valid end-to-end bound.

        Every term relies on fair-round reasoning — each competitor is
        served at most once before the victim — so *every* arbitrated stage
        of the topology must run a policy in
        :data:`FAIR_ARBITRATION_POLICIES`: the bus (exactly Equation 1's
        applicability condition), the bank queues on chained topologies, and
        the response channel on ``split_bus``.  A fixed-priority stage can
        starve a port unboundedly and a TDMA stage waits on its slot
        schedule, so for those the decomposition is undefined and consumers
        must report "no bound" instead (mirroring ``analytical_ubd: null``
        in campaign summaries).
        """
        if self.bus.arbitration not in FAIR_ARBITRATION_POLICIES:
            return False
        if (
            self.topology.has_memory_queues
            and self.topology.mem_arbitration not in FAIR_ARBITRATION_POLICIES
        ):
            return False
        if (
            self.topology.has_response_channel
            and self.topology.response_arbitration not in FAIR_ARBITRATION_POLICIES
        ):
            return False
        return True

    @property
    def ubd_terms(self) -> Dict[str, int]:
        """Per-resource worst-case delay terms of one end-to-end request.

        Each entry bounds the contention delay a single request can pick up
        at one shared resource of the configured topology; the terms sum to
        :attr:`end_to_end_ubd`.  For ``bus_only`` the dictionary is just the
        paper's Equation 1 bus term.  With arbitrated per-bank memory queues
        three more effects appear, each bounded separately (assuming at most
        one outstanding demand request per core, which holds for the
        load/ifetch traffic the methodology measures).  Only defined when
        :attr:`has_composable_bounds` holds; raises
        :class:`~repro.errors.ConfigurationError` otherwise, because
        returning a number that contention can exceed would defeat the
        whole bounding exercise:

        * ``bus`` — the request-phase bus wait: one transaction per other
          port per round-robin round, i.e. ``(Nc - 1) * lbus`` for the other
          cores plus — on ``bus_bank_queues``, whose single bus also carries
          the data returns — one response occupancy for the response port.
        * ``memory`` — the bank-queue wait: up to ``Nc - 1`` competing
          accesses each occupying the bank for at most a row-miss service,
          plus the victim's own row hit turning into a row conflict.
        * ``bus_response`` — the response-phase wait.  On ``bus_bank_queues``
          the response shares the request bus, so the term is an *analytical
          envelope*: behind ``Nc - 1`` other responses, each paying its own
          occupancy plus a full round of request-port grants.  On
          ``split_bus`` the response channel is its own arbitrated resource
          with one port per core and at most one outstanding response per
          port, so the same fair-round argument that gives Equation 1 yields
          the per-resource quantity ``(Nc - 1) * bus_service_response`` —
          much tighter, and directly measurable from the channel's own
          grant-wait trace.
        """
        _require(
            self.has_composable_bounds,
            f"per-resource bounds are undefined for a {self.bus.arbitration!r} "
            f"bus over {self.topology.mem_arbitration!r} bank queues "
            f"(response channel {self.topology.response_arbitration!r}); "
            f"fair-round reasoning covers {list(FAIR_ARBITRATION_POLICIES)} "
            f"on every stage",
        )
        terms = {"bus": (self.num_cores - 1) * self.bus_service_l2_hit}
        if self.topology.has_memory_queues:
            others = self.num_cores - 1
            row_hit = self.dram.row_hit_latency
            row_miss = self.dram.row_miss_latency
            terms["memory"] = others * row_miss + (row_miss - row_hit)
            if self.topology.has_response_channel:
                terms["bus_response"] = others * self.bus_service_response
            else:
                terms["bus"] += self.bus_service_response
                terms["bus_response"] = others * (
                    self.bus_service_response + others * self.bus_service_l2_hit
                )
        return terms

    @property
    def end_to_end_ubd(self) -> int:
        """Sum of :attr:`ubd_terms`: the end-to-end per-request delay bound."""
        return sum(self.ubd_terms.values())

    @property
    def expected_rsk_injection_time(self) -> int:
        """Injection time of back-to-back rsk loads (``delta_rsk``)."""
        return self.dl1.hit_latency

    def l2_ways_for_core(self, core_id: int) -> Tuple[int, ...]:
        """Return the L2 way indices usable by ``core_id``.

        With partitioning enabled (the NGMP configuration), core ``i`` owns
        way ``i``; extra ways beyond ``num_cores`` are distributed round
        robin.  Without partitioning every core may use every way.
        """
        _require(0 <= core_id < self.num_cores, f"invalid core id {core_id}")
        total_ways = self.l2.cache.ways
        if not self.l2.partitioned:
            return tuple(range(total_ways))
        return tuple(w for w in range(total_ways) if w % self.num_cores == core_id)

    def with_overrides(self, **kwargs) -> "ArchConfig":
        """Return a copy of this configuration with selected fields replaced."""
        return replace(self, **kwargs)

    def with_topology_name(self, name: str) -> "ArchConfig":
        """Return a copy running topology ``name`` with this platform's
        memory-side arbitration parameters intact.

        The single override path shared by the CLI ``--topology`` flags, the
        campaign topology axis and the bench harness: swapping only the
        *name* means a preset's non-default bank-queue arbitration is never
        silently reset to the ``TopologyConfig`` defaults.
        """
        return replace(self, topology=replace(self.topology, name=name))

    def to_dict(self) -> Dict[str, object]:
        """Return a JSON-serialisable dictionary of every configuration field.

        The inverse of :func:`config_from_dict`; used by the campaign engine
        to ship configurations across process boundaries, embed them in JSON
        artifacts and hash them for the content-addressed result cache.
        """
        return asdict(self)

    def digest(self) -> str:
        """Stable SHA-256 content hash of this configuration."""
        return canonical_digest(self.to_dict())

    def describe(self) -> Dict[str, object]:
        """Return a flat dictionary summarising the platform (for reports)."""
        return {
            "name": self.name,
            "cores": self.num_cores,
            "freq_mhz": self.freq_mhz,
            "il1": f"{self.il1.size_bytes // 1024}KB/{self.il1.ways}w/{self.il1.line_size}B",
            "dl1": f"{self.dl1.size_bytes // 1024}KB/{self.dl1.ways}w/{self.dl1.line_size}B",
            "dl1_latency": self.dl1.hit_latency,
            "l2": f"{self.l2.cache.size_bytes // 1024}KB/{self.l2.cache.ways}w",
            "l2_latency": self.l2.hit_latency,
            "engine": self.engine,
            "topology": self.topology.name,
            "mem_arbitration": (
                self.topology.mem_arbitration
                if self.topology.has_memory_queues
                else None
            ),
            "response_arbitration": (
                self.topology.response_arbitration
                if self.topology.has_response_channel
                else None
            ),
            "bus_arbitration": self.bus.arbitration,
            "bus_transfer": self.bus.transfer_latency,
            "lbus": self.bus_service_l2_hit,
            "ubd": self.ubd,
            # Per-resource analytical decomposition, None where the
            # fair-round reasoning does not apply (mirrors the campaign
            # summaries' analytical_ubd: null convention).
            "ubd_terms": dict(self.ubd_terms) if self.has_composable_bounds else None,
            "end_to_end_ubd": (self.end_to_end_ubd if self.has_composable_bounds else None),
            "store_buffer_entries": self.store_buffer.entries,
        }


def reference_config(**overrides) -> ArchConfig:
    """The paper's ``ref`` architecture: 4-core NGMP-like, L1 latency 1.

    Keyword overrides are applied on top of the preset, e.g.
    ``reference_config(num_cores=8)``.
    """
    cfg = ArchConfig(name="ref")
    return cfg.with_overrides(**overrides) if overrides else cfg


def variant_config(**overrides) -> ArchConfig:
    """The paper's ``var`` architecture: identical to ``ref`` but L1 latency 4."""
    cfg = ArchConfig(
        name="var",
        il1=CacheConfig(size_bytes=16 * 1024, ways=4, hit_latency=4),
        dl1=CacheConfig(size_bytes=16 * 1024, ways=4, hit_latency=4),
    )
    return cfg.with_overrides(**overrides) if overrides else cfg


def small_config(**overrides) -> ArchConfig:
    """A deliberately tiny platform used by fast unit tests.

    Three cores, small caches and a short bus occupancy keep individual test
    simulations in the microsecond range while exercising every code path.
    Three cores (not two) are used so that ``Nc - 1`` rsk contenders can
    saturate the bus, which the methodology requires (Section 4.3): with a
    single contender whose injection time is non-zero the bus necessarily
    idles between its requests.
    """
    cfg = ArchConfig(
        name="small",
        num_cores=3,
        il1=CacheConfig(size_bytes=1024, ways=2, hit_latency=1),
        dl1=CacheConfig(size_bytes=1024, ways=2, hit_latency=1),
        l2=L2Config(cache=CacheConfig(size_bytes=8 * 1024, ways=4, line_size=32, hit_latency=2)),
        bus=BusConfig(transfer_latency=1),
    )
    return cfg.with_overrides(**overrides) if overrides else cfg


def multi_resource_config(**overrides) -> ArchConfig:
    """The ``ref`` platform with a chained contention topology.

    Identical timing parameters to :func:`reference_config`, but the memory
    controller becomes a second first-class contention point: the
    round-robin bus feeds per-DRAM-bank FIFO queues (topology
    ``bus_bank_queues``), so an L2 miss arbitrates twice — once for the bus
    and once for its bank.  The end-to-end request bound decomposes into
    per-resource terms (:attr:`ArchConfig.ubd_terms`).
    """
    cfg = ArchConfig(
        name="multi_resource",
        topology=TopologyConfig(name="bus_bank_queues", mem_arbitration="fifo"),
    )
    return cfg.with_overrides(**overrides) if overrides else cfg


def split_bus_config(**overrides) -> ArchConfig:
    """The ``ref`` platform with an NGMP-style split-transaction bus.

    Identical timing parameters to :func:`reference_config`, but the bus is
    modelled as its two transaction phases (topology ``split_bus``): a
    round-robin *request channel* feeding per-DRAM-bank FIFO queues and a
    FIFO *response channel* returning the data.  An L2 miss contends three
    times — request channel, bank queue, response channel — and the
    ``bus_response`` entry of :attr:`ArchConfig.ubd_terms` becomes a
    measured per-resource quantity instead of the shared-bus envelope.
    """
    cfg = ArchConfig(
        name="split_bus",
        topology=TopologyConfig(
            name="split_bus", mem_arbitration="fifo", response_arbitration="fifo"
        ),
    )
    return cfg.with_overrides(**overrides) if overrides else cfg


PRESETS = {
    "ref": reference_config,
    "var": variant_config,
    "small": small_config,
    "multi_resource": multi_resource_config,
    "split_bus": split_bus_config,
}


def get_preset(name: str, **overrides) -> ArchConfig:
    """Look up a preset configuration by name (see :data:`PRESETS`)."""
    try:
        factory = PRESETS[name]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown preset {name!r}; available: {sorted(PRESETS)}"
        ) from exc
    return factory(**overrides)


# ---------------------------------------------------------------------------- #
# Serialisation and content hashing (campaign engine support).
# ---------------------------------------------------------------------------- #
def canonical_digest(payload: object) -> str:
    """SHA-256 hex digest of ``payload`` rendered as canonical JSON.

    Canonical means sorted keys and no insignificant whitespace, so two
    logically equal payloads always hash identically regardless of dict
    construction order or the process that produced them.
    """
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def config_from_dict(data: Mapping[str, object]) -> ArchConfig:
    """Rebuild an :class:`ArchConfig` from :meth:`ArchConfig.to_dict` output.

    Validation runs again on construction, so a tampered or stale dictionary
    fails loudly instead of producing silently wrong timing numbers.
    """
    try:
        fields = dict(data)
        l2_data = dict(fields["l2"])
        fields["il1"] = CacheConfig(**fields["il1"])
        fields["dl1"] = CacheConfig(**fields["dl1"])
        fields["l2"] = L2Config(
            cache=CacheConfig(**l2_data["cache"]), partitioned=l2_data["partitioned"]
        )
        fields["bus"] = BusConfig(**fields["bus"])
        fields["dram"] = DramConfig(**fields["dram"])
        fields["store_buffer"] = StoreBufferConfig(**fields["store_buffer"])
        # Dictionaries predating the topology field describe the paper's
        # single-bus platform; default rather than reject them.
        if "topology" in fields:
            fields["topology"] = TopologyConfig(**fields["topology"])
        return ArchConfig(**fields)
    except (KeyError, TypeError) as exc:
        raise ConfigurationError(f"malformed configuration dictionary: {exc}") from exc
