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
from repro.sim.isa import Alu, Load, Nop, Program, Store
from repro.sim.system import System
from repro.sim.trace import clear_trace_cache

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
        contender_programs=st.lists(st.one_of(st.none(), _programs), max_size=3),
        preload_l2=st.booleans(),
        preload_il1=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_engines_agree_on_everything_observable(
        self, config, observed_program, contender_programs, preload_l2, preload_il1
    ):
        programs: List[Optional[Program]] = [observed_program]
        programs.extend(contender_programs[: config.num_cores - 1])
        programs.extend([None] * (config.num_cores - len(programs)))
        outcomes = _run_engines(
            config,
            programs,
            observed=[0],
            preload_l2=preload_l2,
            preload_il1=preload_il1,
        )
        assert outcomes["stepped"].observable_state() == outcomes["event"].observable_state()
