"""Three-way engine equivalence (the scheduler's oracle contract).

The fast engines' whole value proposition is that they are *cycle-exact*:
the event engine and the trace-capture/``replay`` engine (which runs the
per-chain generated loops of :mod:`repro.sim.codegen`) must produce the
same execution times, PMC counts (including the per-resource sections),
request traces (every stamp, including the memory-stage and
response-channel timings) and delay histograms as the stepped oracle,
only faster.  These tests check that contract deterministically for all
four arbiters on all three topologies and both rsk flavours, and
property-test it (hypothesis) across random platform geometries, programs
and preload combinations.

The replay engine is run twice per differential: once cold (trace cache
cleared, so the run is a capture run on real cores through the
``replay_mask=0`` generated loop) and once warm (every trace-safe core
streams its memoised :class:`~repro.sim.trace.CoreTrace` through a
:class:`~repro.sim.trace.ReplayCore`), and both runs must match the oracle
bit for bit.  Store kernels and other trace-unsafe programs exercise the
per-core fallback path for free.

The cold run gets the generate→test→regenerate treatment: on a mismatch
the harness recompiles the loop from scratch, re-runs it with the
self-checking diagnostics variant (which cross-checks every inlined
decision against the generic resource methods), and fails with the
offending generated source attached — see :func:`_check_generated_loop`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.contention import contention_histogram
from repro.config import (
    ARBITRATION_POLICIES,
    TOPOLOGIES,
    BusConfig,
    CacheConfig,
    L2Config,
    StoreBufferConfig,
    TopologyConfig,
    small_config,
)
from repro.errors import AnalysisError
from repro.kernels.rsk import build_rsk, build_stress_contender_set
from repro.sim import codegen as codegen_mod
from repro.sim.codegen import CodegenMismatch
from repro.sim.core import Core, RunAhead
from repro.sim.isa import Alu, Load, Nop, Program, Store
from repro.sim.system import System
from repro.sim.trace import CaptureProbe, clear_trace_cache, global_trace_cache, trace_key

#: Every engine under the oracle contract, oracle first.
ENGINES_UNDER_TEST = ("stepped", "event", "replay")


def _check_generated_loop(config, build_system, observed, max_cycles, oracle_state):
    """The regenerate-with-diagnostics pass of the generated-loop harness.

    Called when a cold replay run — the ``replay_mask=0`` generated loop —
    diverged from the oracle's observable state.  Recompiles the loop from
    scratch (so a stale compile-cache entry cannot mask — or cause — the
    divergence), re-runs a cold replay on the fresh loop, then runs the
    self-checking diagnostics variant, and fails with the generated source
    attached either way.  A configuration the generator cannot specialise
    ran on the generic scheduler instead, so there is no loop to attach.
    """
    reason = codegen_mod.specialisation_mismatch(build_system())
    if reason is not None:
        pytest.fail(
            "replay engine (cold capture run, generic scheduler fallback: "
            f"{reason}) diverged from the stepped oracle"
        )
    codegen_mod.regenerate(config)
    clear_trace_cache()
    retry = build_system().run(observed_cores=observed, max_cycles=max_cycles, engine="replay")
    retry_matches = retry.observable_state() == oracle_state
    diag_loop = codegen_mod.regenerate(config, diagnostics=True)
    diag_note = "diagnostics re-run found no divergent inline decision"
    try:
        diag_loop.run(build_system(), list(observed), max_cycles)
    except CodegenMismatch as exc:
        diag_note = f"diagnostics: {exc}"
    pytest.fail(
        "replay engine (cold capture run on the generated loop) diverged "
        "from the stepped oracle"
        + (
            " (a freshly regenerated loop agrees — stale compile cache?)"
            if retry_matches
            else " (regenerating did not help)"
        )
        + f"\n{diag_note}\n--- generated source ---\n{diag_loop.source}"
    )


def _run_engines(config, programs, observed, trace=True, max_cycles=2_000_000, **kwargs):
    """Run every engine and assert three-way observable equivalence.

    Drives the full :data:`ENGINES_UNDER_TEST` differential and returns
    every outcome.  The replay engine runs twice — a cold capture run on
    the generated loop (trace cache cleared first, outcome ``"replay"``)
    and a warm run replaying the just-captured traces (outcome
    ``"replay_warm"``) — and both must match the oracle.
    """

    def build_system():
        return System(config, list(programs), trace=trace, **kwargs)

    def run(engine):
        return build_system().run(observed_cores=observed, max_cycles=max_cycles, engine=engine)

    outcomes = {}
    for engine in ENGINES_UNDER_TEST:
        if engine == "replay":
            clear_trace_cache()
        outcomes[engine] = run(engine)
    outcomes["replay_warm"] = run("replay")
    oracle_state = outcomes["stepped"].observable_state()
    assert outcomes["event"].observable_state() == oracle_state
    if outcomes["replay"].observable_state() != oracle_state:
        _check_generated_loop(config, build_system, observed, max_cycles, oracle_state)
    assert outcomes["replay_warm"].observable_state() == oracle_state, (
        "replay engine (warm trace-replay run) diverged from the stepped oracle"
    )
    return outcomes


class TestAllArbitersEquivalent:
    @pytest.mark.parametrize("arbiter", ARBITRATION_POLICIES)
    @pytest.mark.parametrize("kind", ["load", "store"])
    def test_rsk_contention_is_identical(self, arbiter, kind):
        config = small_config(bus=BusConfig(arbitration=arbiter, transfer_latency=1))
        scua = build_rsk(config, 0, kind=kind, iterations=60)
        contenders = build_stress_contender_set(config, "bus", 0, kind=kind)
        programs: List[Optional[Program]] = [None] * config.num_cores
        programs[0] = scua
        for core, program in contenders.items():
            programs[core] = program
        outcomes = _run_engines(config, programs, observed=[0], preload_l2=True, preload_il1=True)
        stepped = outcomes["stepped"].observable_state()
        event = outcomes["event"].observable_state()
        assert stepped == event
        # The delay histogram — the paper's headline artifact — must match
        # bin for bin (loads only; store traffic drains via the buffer).
        if kind == "load":
            histograms = {}
            for engine, outcome in outcomes.items():
                try:
                    histograms[engine] = contention_histogram(outcome.trace, 0).counts
                except AnalysisError:
                    histograms[engine] = None
            assert histograms["event"] == histograms["stepped"]
            assert histograms["replay"] == histograms["stepped"]
            assert histograms["replay_warm"] == histograms["stepped"]

    def test_dram_path_is_identical(self):
        # No preloading: every miss walks the full controller + DRAM path.
        config = small_config()
        scua = build_rsk(config, 0, iterations=40)
        contenders = build_stress_contender_set(config, "bus", 0)
        programs: List[Optional[Program]] = [None] * config.num_cores
        programs[0] = scua
        for core, program in contenders.items():
            programs[core] = program
        outcomes = _run_engines(config, programs, observed=[0])
        assert outcomes["stepped"].observable_state() == outcomes["event"].observable_state()

    def test_timeout_stops_on_the_same_cycle(self):
        config = small_config()
        scua = build_rsk(config, 0, iterations=10_000)
        programs: List[Optional[Program]] = [None] * config.num_cores
        programs[0] = scua
        outcomes = _run_engines(config, programs, observed=[0], max_cycles=777, preload_l2=True)
        for outcome in outcomes.values():
            assert outcome.timed_out
        assert outcomes["stepped"].observable_state() == outcomes["event"].observable_state()


class TestChainedTopologyEquivalent:
    """Stepped vs event on the multi-resource topology (bus -> bank queues).

    Satellite of the composable-interconnect refactor: at least one
    chained-resource run per arbiter, on both the bus axis (every bus
    arbiter over FIFO bank queues) and the memory axis (round-robin bus
    over every bank-queue arbiter).  No preloading, so every request walks
    bus -> bank queue -> DRAM -> response, exercising both contention
    points and the bank-grant horizon.
    """

    @staticmethod
    def _run_chained(config, kind="load", iterations=45):
        scua = build_rsk(config, 0, kind=kind, iterations=iterations)
        contenders = build_stress_contender_set(config, "bus", 0, kind=kind)
        programs: List[Optional[Program]] = [None] * config.num_cores
        programs[0] = scua
        for core, program in contenders.items():
            programs[core] = program
        outcomes = _run_engines(config, programs, observed=[0])
        assert outcomes["stepped"].observable_state() == outcomes["event"].observable_state()
        return outcomes

    @pytest.mark.parametrize("arbiter", ARBITRATION_POLICIES)
    @pytest.mark.parametrize("kind", ["load", "store"])
    def test_every_bus_arbiter_over_fifo_bank_queues(self, arbiter, kind):
        config = small_config(
            bus=BusConfig(arbitration=arbiter, transfer_latency=1),
            topology=TopologyConfig(name="bus_bank_queues"),
        )
        outcomes = self._run_chained(config, kind=kind)
        if kind == "load":
            histograms = {}
            for engine, outcome in outcomes.items():
                try:
                    histograms[engine] = contention_histogram(outcome.trace, 0).counts
                except AnalysisError:
                    histograms[engine] = None
            assert histograms["event"] == histograms["stepped"]
            assert histograms["replay"] == histograms["stepped"]
            assert histograms["replay_warm"] == histograms["stepped"]

    @pytest.mark.parametrize("mem_arbiter", ARBITRATION_POLICIES)
    def test_every_bank_queue_arbiter_under_round_robin_bus(self, mem_arbiter):
        config = small_config(
            topology=TopologyConfig(
                name="bus_bank_queues",
                mem_arbitration=mem_arbiter,
                mem_tdma_slot=40,
            )
        )
        self._run_chained(config)

    def test_chained_timeout_stops_on_the_same_cycle(self):
        config = small_config(topology=TopologyConfig(name="bus_bank_queues"))
        scua = build_rsk(config, 0, iterations=10_000)
        programs: List[Optional[Program]] = [None] * config.num_cores
        programs[0] = scua
        outcomes = _run_engines(config, programs, observed=[0], max_cycles=901)
        for outcome in outcomes.values():
            assert outcome.timed_out
        assert outcomes["stepped"].observable_state() == outcomes["event"].observable_state()


class TestSplitBusEquivalent:
    """Stepped vs event on the split-transaction topology (request channel
    -> bank queues -> response channel): three composed resources, so the
    engines must agree while juggling three independent horizon caches and
    deliveries that post work into a *later* resource of the same cycle's
    chain.  No preloading, so every request walks all three stages."""

    @staticmethod
    def _run_split(config, kind="load", iterations=45):
        scua = build_rsk(config, 0, kind=kind, iterations=iterations)
        contenders = build_stress_contender_set(config, "bus", 0, kind=kind)
        programs: List[Optional[Program]] = [None] * config.num_cores
        programs[0] = scua
        for core, program in contenders.items():
            programs[core] = program
        outcomes = _run_engines(config, programs, observed=[0])
        assert outcomes["stepped"].observable_state() == outcomes["event"].observable_state()
        return outcomes

    @pytest.mark.parametrize("arbiter", ARBITRATION_POLICIES)
    @pytest.mark.parametrize("kind", ["load", "store"])
    def test_every_request_arbiter_on_the_split_bus(self, arbiter, kind):
        config = small_config(
            bus=BusConfig(arbitration=arbiter, transfer_latency=1),
            topology=TopologyConfig(name="split_bus"),
        )
        outcomes = self._run_split(config, kind=kind)
        if kind == "load":
            histograms = {}
            for engine, outcome in outcomes.items():
                try:
                    histograms[engine] = contention_histogram(outcome.trace, 0).counts
                except AnalysisError:
                    histograms[engine] = None
            assert histograms["event"] == histograms["stepped"]
            assert histograms["replay"] == histograms["stepped"]
            assert histograms["replay_warm"] == histograms["stepped"]

    @pytest.mark.parametrize("response_arbiter", ARBITRATION_POLICIES)
    def test_every_response_arbiter_under_round_robin_requests(self, response_arbiter):
        config = small_config(
            topology=TopologyConfig(
                name="split_bus",
                response_arbitration=response_arbiter,
                response_tdma_slot=5,
            )
        )
        self._run_split(config)

    def test_split_timeout_stops_on_the_same_cycle(self):
        config = small_config(topology=TopologyConfig(name="split_bus"))
        scua = build_rsk(config, 0, iterations=10_000)
        programs: List[Optional[Program]] = [None] * config.num_cores
        programs[0] = scua
        outcomes = _run_engines(config, programs, observed=[0], max_cycles=903)
        for outcome in outcomes.values():
            assert outcome.timed_out
        assert outcomes["stepped"].observable_state() == outcomes["event"].observable_state()


# --------------------------------------------------------------------------- #
# Property-based equivalence over random configs, arbiters and kernels.
# --------------------------------------------------------------------------- #

_addresses = st.integers(min_value=0, max_value=31).map(lambda i: 0x100 + 32 * i)

_bodies = st.lists(
    st.one_of(
        st.builds(Nop),
        st.builds(Alu, latency=st.integers(min_value=1, max_value=4)),
        st.builds(Load, addr=_addresses),
        st.builds(Store, addr=_addresses),
    ),
    min_size=1,
    max_size=12,
)

_programs = st.builds(
    lambda body, iterations: Program(name="random", body=tuple(body), iterations=iterations),
    body=_bodies,
    iterations=st.integers(min_value=1, max_value=5),
)

#: Contenders that never finish, so a run ends with them mid-program: what
#: they retired by then must match the oracle's (run-ahead's bound).
_infinite_programs = st.builds(
    lambda body: Program(name="contender", body=tuple(body), iterations=None),
    body=_bodies,
)


def _build_config(arbiter, transfer, slot, dl1_latency, entries, cores, topology, mem_arbiter):
    return small_config(
        num_cores=cores,
        bus=BusConfig(arbitration=arbiter, transfer_latency=transfer, tdma_slot=slot),
        dl1=CacheConfig(size_bytes=1024, ways=2, hit_latency=dl1_latency),
        l2=L2Config(cache=CacheConfig(size_bytes=8 * 1024, ways=4, line_size=32, hit_latency=2)),
        store_buffer=StoreBufferConfig(entries=entries),
        # The drawn arbiter doubles as the response-channel policy so the
        # split_bus strategy also sweeps response arbitration.
        topology=TopologyConfig(
            name=topology,
            mem_arbitration=mem_arbiter,
            response_arbitration=mem_arbiter,
            response_tdma_slot=slot,
        ),
    )


_configs = st.builds(
    _build_config,
    arbiter=st.sampled_from(ARBITRATION_POLICIES),
    transfer=st.integers(min_value=1, max_value=3),
    slot=st.integers(min_value=3, max_value=9),
    dl1_latency=st.sampled_from([1, 4]),
    entries=st.integers(min_value=1, max_value=2),
    cores=st.integers(min_value=2, max_value=4),
    topology=st.sampled_from(TOPOLOGIES),
    mem_arbiter=st.sampled_from(ARBITRATION_POLICIES),
)


class TestEngineEquivalenceProperties:
    @given(
        config=_configs,
        observed_program=_programs,
        second_observed=st.one_of(st.none(), _programs),
        contender_programs=st.lists(
            st.one_of(st.none(), _programs, _infinite_programs), max_size=3
        ),
        preload_l2=st.booleans(),
        preload_il1=st.booleans(),
        preload_dl1=st.booleans(),
        # Short budgets stop the run inside a run-ahead window.
        max_cycles=st.one_of(st.just(2_000_000), st.integers(min_value=1, max_value=300)),
    )
    @settings(max_examples=80, deadline=None)
    def test_engines_agree_on_everything_observable(
        self,
        config,
        observed_program,
        second_observed,
        contender_programs,
        preload_l2,
        preload_il1,
        preload_dl1,
        max_cycles,
    ):
        programs: List[Optional[Program]] = [observed_program]
        observed = [0]
        if second_observed is not None:
            programs.append(second_observed)
            observed.append(1)
        programs.extend(contender_programs[: config.num_cores - len(programs)])
        programs.extend([None] * (config.num_cores - len(programs)))
        outcomes = _run_engines(
            config,
            programs,
            observed=observed,
            max_cycles=max_cycles,
            preload_l2=preload_l2,
            preload_il1=preload_il1,
            preload_dl1=preload_dl1,
        )
        assert outcomes["stepped"].observable_state() == outcomes["event"].observable_state()


# --------------------------------------------------------------------------- #
# Private run-ahead (the scheduler's invariant 5), case by case.
# --------------------------------------------------------------------------- #


@pytest.fixture
def ahead_windows(monkeypatch):
    """Spy on :meth:`Core.run_ahead`: core id -> list of
    ``(busy_until before, busy_until after, instructions retired)`` of every
    call that retired something, so a test can show it exercised run-ahead."""
    windows = defaultdict(list)
    original = Core.run_ahead

    def spy(core, limit):
        start, retired = core._busy_until, core.instructions_retired
        original(core, limit)
        if core.instructions_retired != retired:
            windows[core.core_id].append(
                (start, core._busy_until, core.instructions_retired - retired)
            )

    monkeypatch.setattr(Core, "run_ahead", spy)
    return windows


def _rsk_contended(config, observed_program, contender_cores=(1, 2)):
    programs: List[Optional[Program]] = [None] * config.num_cores
    programs[0] = observed_program
    for core in contender_cores:
        programs[core] = build_rsk(config, core)
    return programs


class TestPrivateRunAhead:
    def test_infinite_alu_contender_retires_what_the_oracle_retires(self, ahead_windows):
        # The contender never finishes, so its count at the observed core's
        # last cycle is the whole test of the follower bound.  Two cache
        # lines of body and no IL1 preload also exercise the IL1-miss stop.
        config = small_config()
        observed = Program(
            "observed",
            (Load(addr=0x100), Alu(latency=2), Nop(), Alu(latency=3), Load(addr=0x2100)),
            iterations=25,
        )
        contender = Program(
            "alu-only", (Alu(latency=1), Nop(), Alu(latency=2)) * 4, iterations=None
        )
        programs: List[Optional[Program]] = [observed, contender, build_rsk(config, 2)]
        outcomes = _run_engines(config, programs, observed=[0], preload_l2=True)
        stepped = outcomes["stepped"]
        for outcome in outcomes.values():
            assert outcome.instructions == stepped.instructions
            assert outcome.pmc.as_dict()["cores"] == stepped.pmc.as_dict()["cores"]
        assert stepped.instructions[1] > 0
        assert ahead_windows[1], "the contender never ran ahead"

    def test_store_drain_posted_inside_a_run_ahead_window_keeps_its_cycle(
        self, ahead_windows
    ):
        # Four stores fill the buffer, then a long ALU run executes ahead of
        # the clock while the buffered stores drain one by one behind rsk
        # contention: each next head is posted on the cycle the previous
        # drain completes, which lies inside the core's run-ahead window.
        config = small_config()
        body = tuple(Store(addr=0x100 + 64 * i) for i in range(4)) + (Alu(latency=1),) * 40
        programs = _rsk_contended(config, Program("store-burst", body, iterations=3))
        outcomes = _run_engines(
            config, programs, observed=[0], preload_l2=True, preload_il1=True
        )
        stepped = outcomes["stepped"].observable_state()
        for outcome in outcomes.values():
            assert outcome.observable_state()["trace"] == stepped["trace"]
        drains = [
            record.ready_cycle
            for record in outcomes["event"].trace.records
            if record.port == 0 and record.kind == "store"
        ]
        assert any(
            start < drain < end
            for drain in drains
            for start, end, _ in ahead_windows[0]
        ), "no store drain was posted while the core ran ahead"

    def test_dl1_miss_load_after_a_run_ahead_forwards_from_the_buffer(self, ahead_windows):
        # The store to 0x100 sits behind three other buffered stores, so the
        # load of the same line — a DL1 miss, reached through a run-ahead —
        # still finds it buffered and forwards instead of using the bus.
        config = small_config()
        stores = tuple(Store(addr=0x400 + 64 * i) for i in range(3)) + (Store(addr=0x100),)
        body = stores + (Alu(latency=1),) * 6 + (Load(addr=0x100),)
        programs = _rsk_contended(config, Program("forward", body, iterations=1))
        outcomes = _run_engines(
            config, programs, observed=[0], preload_l2=True, preload_il1=True
        )
        for outcome in outcomes.values():
            kinds = [record.kind for record in outcome.trace.records if record.port == 0]
            assert kinds and set(kinds) == {"store"}
            assert outcome.pmc.core[0].loads == 1
        assert ahead_windows[0]

    def test_probed_core_keeps_ticking_and_captures_the_stepped_trace(self):
        # A CaptureProbe records every retirement at its own cycle, so the
        # probed core must not take part; its CoreTrace must equal the one
        # a stepped run (which never runs ahead) captures.
        config = small_config()
        body = (Load(addr=0x100), Alu(latency=2)) + (Nop(),) * 6 + (Load(addr=0x900),)
        program = Program("nop-heavy", body, iterations=12)

        def build():
            return System(
                config, _rsk_contended(config, program), preload_l2=True, preload_il1=True
            )

        key = trace_key(config, program, True, False)

        def captured_on(engine):
            system = build()
            probe = CaptureProbe(system.cores[0], key, program)
            result = system.run(observed_cores=[0], engine=engine)
            return probe.harvest(result.cycles - 1, result.timed_out)[0]

        stepped_trace = captured_on("stepped")
        assert stepped_trace is not None
        assert captured_on("event") == stepped_trace
        clear_trace_cache()
        build().run(observed_cores=[0], engine="replay")  # captures with its own probe
        assert global_trace_cache().get(key) == stepped_trace

    def test_only_built_in_unprobed_cores_with_programs_take_part(self):
        config = small_config()
        program = Program("alu", (Alu(latency=1),), iterations=3)
        system = System(config, [program, program.with_iterations(None), None])
        run_ahead = RunAhead(system.cores, [0])
        assert run_ahead.leaders == [system.cores[0]]
        assert run_ahead.followers == [system.cores[1]]
        CaptureProbe(system.cores[1], "key", system.programs[1])
        assert RunAhead(system.cores, [0]).followers == []
