"""Trace-capture/replay machinery tests: keys, cache, store backing, fallback.

The cycle-exactness of the ``replay`` engine is covered by the three-way
differential in ``test_engine_equivalence.py``; this module tests the
machinery around it:

* the core-side digest — :func:`core_side_key` and :func:`trace_key` hit
  across every interconnect/arbiter/engine change and miss on any
  kernel/cache/core-parameter change (the property the arbiter-sweep
  speedup rests on), exercised both directed and as a hypothesis property
  mirroring the generated-loop compile-cache test;
* the serialised :class:`CoreTrace` payload — round-trips exactly, stale
  schema stamps raise (and the cache treats them as misses, not data);
* the static safety screen — :func:`replay_blocker` rejects stores;
* the :class:`TraceCache` — LRU eviction, counters, negative entries, and
  the :class:`ResultStore` trace section backing it (persist, cross-cache
  hit, ``trace_stats``, gc by age);
* nop families — the family key, the IL1 residency guard, the affine fit
  through two anchors (accepting and rejecting), derived traces equal to
  captured ones field for field over whole k sweeps, the per-member and
  per-family fallbacks with their reasons, anchors outliving the LRU, and
  a structural cap on the captures of ``derive-ubd --per-resource``;
* the :class:`ReplayEngine` — per-core fallback reasons while the run
  still completes with the oracle's observable state;
* the bench/compare surface — ``replay_spec`` is a trace-safe pure-rsk
  grid, and gating a metric absent from an older-schema baseline warns
  instead of raising ``KeyError``.
"""

from __future__ import annotations

import dataclasses
import os
from typing import List, Optional

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.campaign.store import ResultStore
from repro.cli import main
from repro.config import (
    BusConfig,
    CacheConfig,
    L2Config,
    TopologyConfig,
    get_preset,
    small_config,
)
from repro.errors import SimulationError
from repro.kernels.rsk import build_rsk, build_rsk_nop
from repro.bench.campaign_bench import CAMPAIGN_WORKLOADS
from repro.bench.compare import compare_payloads
from repro.sim.core import Core
from repro.sim.isa import Load, Nop, Program
from repro.sim.system import System, SystemResult
from repro.sim.trace import (
    CaptureProbe,
    CoreTrace,
    NopFamilyModel,
    ReplayCore,
    ReplayEngine,
    TraceCache,
    TraceStep,
    TraceUnsafe,
    clear_trace_cache,
    core_side_key,
    core_side_payload,
    fit_nop_family,
    global_trace_cache,
    il1_residency_blocker,
    nop_member,
    replay_blocker,
    trace_key,
    TRACE_SCHEMA_VERSION,
)


@pytest.fixture(autouse=True)
def _isolated_trace_cache():
    """Every test starts and ends with an empty process-wide trace cache."""
    clear_trace_cache()
    yield
    clear_trace_cache()


def _programs_for(config, kind="load", iterations=30):
    scua = build_rsk(config, 0, kind=kind, iterations=iterations)
    programs: List[Optional[Program]] = [None] * config.num_cores
    programs[0] = scua
    return programs


def _capture_one_trace(config=None) -> CoreTrace:
    """Run the replay engine cold once and return the captured trace."""
    config = config or small_config()
    system = System(config, _programs_for(config))
    system.run(observed_cores=[0], engine="replay")
    cache = global_trace_cache()
    assert cache.counters["captures"] == 1
    (entry,) = list(cache._entries.values())
    assert isinstance(entry, CoreTrace)
    return entry


# --------------------------------------------------------------------------- #
# Core-side digests.
# --------------------------------------------------------------------------- #


class TestCoreSideKey:
    def test_system_side_changes_share_a_key(self):
        """Interconnect, arbiter, memory, topology, engine and cosmetic
        fields are all stripped: an arbiter/topology sweep is one key."""
        base = small_config()
        for overrides in (
            {"bus": BusConfig(arbitration="tdma", transfer_latency=7, tdma_slot=11)},
            {"topology": TopologyConfig(name="split_bus")},
            {"engine": "stepped"},
            {"name": "renamed"},
            {"freq_mhz": 1000},
        ):
            variant = base.with_overrides(**overrides)
            assert core_side_key(variant) == core_side_key(base), overrides

    @pytest.mark.parametrize(
        "overrides",
        [
            {"il1": CacheConfig(size_bytes=2048, ways=2, hit_latency=1)},
            {"dl1": CacheConfig(size_bytes=1024, ways=2, hit_latency=3)},
            {"l2": L2Config(cache=CacheConfig(size_bytes=4096, ways=4, hit_latency=2))},
            {"num_cores": 4},
            {"alu_latency": 2},
            {"nop_latency": 2},
        ],
    )
    def test_core_side_changes_miss(self, overrides):
        """Anything that can change the demand-request sequence changes
        the key: private caches, the (live) L2 geometry, execute-stage
        latencies and the core count."""
        base = small_config()
        assert core_side_key(base.with_overrides(**overrides)) != core_side_key(base)

    def test_trace_key_depends_on_program_and_preloads(self):
        config = small_config()
        short = build_rsk(config, 0, kind="load", iterations=10)
        long = build_rsk(config, 0, kind="load", iterations=20)
        key = trace_key(config, short, False, False)
        assert trace_key(config, long, False, False) != key
        assert trace_key(config, short, True, False) != key
        assert trace_key(config, short, False, True) != key
        assert trace_key(config.with_overrides(engine="replay"), short, False, False) == key

    @settings(max_examples=60, deadline=None)
    @given(
        a_hit=st.integers(min_value=1, max_value=3),
        a_transfer=st.integers(min_value=1, max_value=4),
        a_topology=st.sampled_from(["bus_only", "split_bus"]),
        a_engine=st.sampled_from(["stepped", "event", "replay"]),
        b_hit=st.integers(min_value=1, max_value=3),
        b_transfer=st.integers(min_value=1, max_value=4),
        b_topology=st.sampled_from(["bus_only", "split_bus"]),
        b_engine=st.sampled_from(["stepped", "event", "replay"]),
    )
    def test_keys_collide_iff_core_side_payloads_are_equal(
        self, a_hit, a_transfer, a_topology, a_engine, b_hit, b_transfer, b_topology, b_engine
    ):
        """The digest property, mirroring the generated-loop compile-cache test:
        equal keys exactly when the configurations agree on every
        core-side field, however the system side differs."""

        def build(hit, transfer, topology, engine):
            return small_config(
                dl1=CacheConfig(size_bytes=1024, ways=2, hit_latency=hit),
                bus=BusConfig(transfer_latency=transfer),
                topology=TopologyConfig(name=topology),
                engine=engine,
            )

        a = build(a_hit, a_transfer, a_topology, a_engine)
        b = build(b_hit, b_transfer, b_topology, b_engine)
        assert (core_side_key(a) == core_side_key(b)) == (
            core_side_payload(a) == core_side_payload(b)
        )


# --------------------------------------------------------------------------- #
# Static safety screen and the captured payload.
# --------------------------------------------------------------------------- #


class TestSafetyAndPayload:
    def test_stores_are_never_trace_safe(self):
        config = small_config()
        store_kernel = build_rsk(config, 0, kind="store", iterations=10)
        reason = replay_blocker(store_kernel)
        assert reason is not None and "store" in reason
        assert replay_blocker(build_rsk(config, 0, kind="load", iterations=10)) is None

    def test_retire_counts_summarise_the_segment(self):
        step = TraceStep(
            gap=5,
            kind="load",
            addr=64,
            retirements=((0, "load"), (1, "nop"), (2, "alu"), (3, "store"), (4, "nop")),
        )
        assert step.retire_counts == (5, 1, 1, 2)

    def test_payload_round_trips_exactly(self):
        trace = _capture_one_trace()
        rebuilt = CoreTrace.from_payload(trace.to_payload())
        assert rebuilt == trace

    def test_stale_schema_raises(self):
        trace = _capture_one_trace()
        payload = trace.to_payload()
        payload["schema"] = TRACE_SCHEMA_VERSION + 1
        with pytest.raises(SimulationError):
            CoreTrace.from_payload(payload)

    def test_stale_store_payload_is_a_miss(self, tmp_path):
        """A schema-bumped on-disk trace must be ignored, never misread."""
        trace = _capture_one_trace()
        stale = trace.to_payload()
        stale["schema"] = TRACE_SCHEMA_VERSION + 1
        with ResultStore(tmp_path / "store") as store:
            store.put_trace(trace.key, stale)
            cache = TraceCache()
            cache.attach_store(store)
            assert cache.get(trace.key) is None
            assert cache.counters["misses"] == 1
            assert cache.counters["store_hits"] == 0


# --------------------------------------------------------------------------- #
# The trace cache and its store backing.
# --------------------------------------------------------------------------- #


class TestTraceCache:
    def test_lru_evicts_the_coldest_entry(self):
        cache = TraceCache(max_entries=2)
        for index in range(3):
            cache._insert(f"k{index}", TraceUnsafe(f"r{index}"))
        assert len(cache) == 2
        assert cache.get("k0") is None  # evicted
        assert isinstance(cache.get("k2"), TraceUnsafe)

    def test_counters_track_every_outcome(self):
        cache = TraceCache()
        assert cache.get("absent") is None
        cache.put(CoreTrace(key="t", steps=(TraceStep(1, "load", 0),), done_offset=1))
        cache.put_unsafe("u", "because")
        assert cache.get("t") is not None
        stats = cache.stats()
        assert stats == {
            "hits": 1,
            "misses": 1,
            "store_hits": 0,
            "derived": 0,
            "captures": 1,
            "unsafe": 1,
            "family_fallbacks": 0,
            "entries": 2,
        }
        cache.reset_counters()
        assert cache.stats()["entries"] == 2
        assert cache.stats()["hits"] == 0

    def test_store_round_trip_feeds_a_fresh_cache(self, tmp_path):
        trace = _capture_one_trace()
        with ResultStore(tmp_path / "store") as store:
            writer = TraceCache()
            writer.attach_store(store)
            writer.put(trace)
            assert store.trace_stats()["entries"] == 1
            reader = TraceCache()
            reader.attach_store(store)
            got = reader.get(trace.key)
            assert got == trace
            assert reader.counters["store_hits"] == 1

    def test_negative_entries_stay_in_process(self, tmp_path):
        with ResultStore(tmp_path / "store") as store:
            cache = TraceCache()
            cache.attach_store(store)
            cache.put_unsafe("deadbeef" * 8, "not safe")
            assert store.trace_stats()["entries"] == 0

    def test_store_gc_ages_traces_by_mtime(self, tmp_path):
        trace = _capture_one_trace()
        with ResultStore(tmp_path / "store") as store:
            store.put_trace(trace.key, trace.to_payload())
            # Backdate the artifact so a 1-day horizon expires it.
            path = store.traces_dir / f"{trace.key}.json"
            old = path.stat().st_mtime - 3 * 86400
            os.utime(path, (old, old))
            outcome = store.gc(keep_days=1.0)
            assert outcome.traces_removed == 1
            assert store.trace_stats()["entries"] == 0


# --------------------------------------------------------------------------- #
# The replay engine: capture-then-replay and per-core fallback.
# --------------------------------------------------------------------------- #


class TestReplayEngine:
    def test_second_run_replays_without_capturing(self):
        config = small_config()
        cold = System(config, _programs_for(config)).run(observed_cores=[0], engine="replay")
        cache = global_trace_cache()
        assert cache.counters["captures"] == 1

        cache.reset_counters()
        system = System(config, _programs_for(config))
        engine = ReplayEngine(system)
        engine.run([0], max_cycles=10_000_000)
        assert engine.replayed_cores == [0]
        assert engine.captured_cores == []
        assert engine.fallback_reasons == {}
        assert engine.derived_cores == []
        assert cache.counters == {
            "hits": 1,
            "misses": 0,
            "store_hits": 0,
            "derived": 0,
            "captures": 0,
            "unsafe": 0,
            "family_fallbacks": 0,
        }
        assert isinstance(system.cores[0], ReplayCore)
        assert system.cores[0].done_cycle == cold.done_cycles[0]
        assert system.pmc.as_dict() == cold.pmc.as_dict()

    def test_store_kernel_falls_back_with_a_reason(self):
        config = small_config()
        programs = _programs_for(config, kind="store")
        oracle = System(config, programs).run(observed_cores=[0], engine="stepped")

        system = System(config, _programs_for(config, kind="store"))
        engine = ReplayEngine(system)
        engine.run([0], max_cycles=10_000_000)
        assert 0 in engine.fallback_reasons
        assert "store" in engine.fallback_reasons[0]
        assert engine.replayed_cores == []
        assert isinstance(system.cores[0], Core)
        assert system.cores[0].done_cycle == oracle.done_cycles[0]
        # The failed capture is negative-cached: the next run skips the probe.
        system2 = System(config, _programs_for(config, kind="store"))
        engine2 = ReplayEngine(system2)
        engine2.run([0], max_cycles=10_000_000)
        assert engine2.captured_cores == []
        assert 0 in engine2.fallback_reasons


# --------------------------------------------------------------------------- #
# Nop families: capture an rsk-nop family once, derive the other members.
# --------------------------------------------------------------------------- #

#: Iterations of the rsk-nop kernels of the sweep tests: the family shape
#: does not depend on them, and a short kernel keeps 121-point sweeps cheap.
NOP_ITERATIONS = 3


def _nop_system(config, k, iterations=NOP_ITERATIONS, preload_il1=True, contenders=False):
    programs: List[Optional[Program]] = [None] * config.num_cores
    programs[0] = build_rsk_nop(config, 0, k=k, iterations=iterations)
    if contenders:
        for core in range(1, config.num_cores):
            programs[core] = build_rsk(config, core)
    return System(
        config, programs, trace=contenders, preload_l2=True, preload_il1=preload_il1
    )


def _captured(config, k, iterations=NOP_ITERATIONS, preload_il1=True) -> CoreTrace:
    """rsk-nop(k)'s trace captured by a bare probe on the event engine, with
    no trace cache (and so no nop family) involved."""
    system = _nop_system(config, k, iterations, preload_il1)
    program = system.programs[0]
    key = trace_key(config, program, preload_il1, False)
    probe = CaptureProbe(system.cores[0], key, program)
    result = system.run(observed_cores=[0], engine="event")
    trace, reason, _ = probe.harvest(result.cycles, result.timed_out)
    assert trace is not None, reason
    return trace


def _sweep_point(config, k, iterations=NOP_ITERATIONS, preload_il1=True, contenders=False):
    """One replay-engine run of rsk-nop(k) on the process-wide cache; returns
    the engine, the trace the run used or captured, and the result."""
    system = _nop_system(config, k, iterations, preload_il1, contenders)
    engine = ReplayEngine(system)
    cycle, timed_out = engine.run([0], max_cycles=10_000_000)
    key = trace_key(config, system.programs[0], preload_il1, False)
    used = global_trace_cache()._entries[key]
    return engine, used, SystemResult.collect(system, cycle, timed_out)


def _state(result):
    records = None
    if result.trace is not None:
        records = [dataclasses.astuple(record) for record in result.trace.records]
    return (
        result.cycles,
        result.done_cycles,
        result.instructions,
        result.timed_out,
        result.pmc.as_dict(),
        records,
    )


class TestNopFamilyKey:
    def test_members_share_a_family_and_differ_in_k(self):
        config = small_config()
        members = [
            nop_member(config, build_rsk_nop(config, 0, k=k, iterations=5), True, False)
            for k in (1, 2, 7)
        ]
        assert all(member is not None for member in members)
        assert len({member.family for member in members}) == 1
        assert [member.k for member in members] == [1, 2, 7]
        other = nop_member(config, build_rsk_nop(config, 0, k=1, iterations=6), True, False)
        assert other.family != members[0].family
        unloaded = nop_member(config, build_rsk_nop(config, 0, k=1, iterations=5), False, False)
        assert unloaded.family != members[0].family

    def test_programs_outside_any_family(self):
        config = small_config()
        # k=0 has no nop run, an infinite kernel has no finite trace, and
        # nop runs of two lengths have no single k.
        assert nop_member(config, build_rsk_nop(config, 0, k=0, iterations=5), True, False) is None
        assert nop_member(config, build_rsk(config, 0), True, False) is None
        mixed = Program(
            "mixed", (Load(0x1000), Nop(), Load(0x2000), Nop(), Nop()), iterations=3
        )
        assert nop_member(config, mixed, True, False) is None

    def test_il1_residency_guard(self):
        config = small_config()
        fits = build_rsk_nop(config, 0, k=84, iterations=5)
        spills = build_rsk_nop(config, 0, k=85, iterations=5)
        assert len(fits.code_lines(config.line_size)) == 32 == config.il1.num_sets * 2
        assert il1_residency_blocker(config, fits, True) is None
        assert "IL1 residency" in il1_residency_blocker(config, spills, True)
        assert "not preloaded" in il1_residency_blocker(config, fits, False)
        assert nop_member(config, spills, True, False).blocker is not None


class TestNopFamilyFit:
    @staticmethod
    def _trace(key, gap, nops, done=1, addr=0):
        retirements = ((0, "load"),) + tuple((1 + j, "nop") for j in range(nops))
        return CoreTrace(key, (TraceStep(gap, "load", addr, retirements),), done_offset=done)

    def test_affine_anchors_fit_and_extrapolate(self):
        model = fit_nop_family(self._trace("a", 2, 1), 1, self._trace("b", 3, 2), 2)
        assert isinstance(model, NopFamilyModel)
        assert model.derive("c", 5) == self._trace("c", 6, 5)

    def test_disagreeing_anchors_are_rejected_with_a_reason(self):
        a = self._trace("a", 2, 1)
        assert "gap is not affine" in fit_nop_family(a, 1, self._trace("b", 3, 2), 3)
        assert "differ at step 0" in fit_nop_family(
            a, 1, self._trace("b", 3, 2, addr=64), 2
        )
        assert "done offset" in fit_nop_family(a, 1, self._trace("b", 4, 3, done=4), 3)
        periodic = CoreTrace("p", a.steps, period=1)
        assert "periodic" in fit_nop_family(a, 1, periodic, 2)
        longer = CoreTrace("l", a.steps * 2, done_offset=1)
        assert "step count" in fit_nop_family(a, 1, longer, 2)

    def test_unpreloaded_anchors_disagree_in_their_ifetches(self):
        """Without a preloaded IL1 every extra code line is one more cold
        ifetch, so the step count grows with k and no model fits."""
        config = small_config()
        a = _captured(config, 1, preload_il1=False)
        b = _captured(config, 9, preload_il1=False)
        assert "step count" in fit_nop_family(a, 1, b, 9)

    @settings(max_examples=25, deadline=None)
    @given(
        preset=st.sampled_from(["ref", "split_bus", "var", "small"]),
        k_a=st.integers(min_value=1, max_value=84),
        k_b=st.integers(min_value=1, max_value=84),
        k=st.integers(min_value=1, max_value=84),
        iterations=st.integers(min_value=1, max_value=6),
    )
    def test_any_two_anchors_derive_any_resident_member(self, preset, k_a, k_b, k, iterations):
        """k <= 84 keeps every preset's code IL1-resident (``small`` fills
        its IL1 exactly at 84)."""
        assume(k_a != k_b)
        config = get_preset(preset)
        model = fit_nop_family(
            _captured(config, k_a, iterations), k_a, _captured(config, k_b, iterations), k_b
        )
        assert isinstance(model, NopFamilyModel), model
        expected = _captured(config, k, iterations)
        assert model.derive(expected.key, k) == expected


class TestNopFamilyEngine:
    @pytest.mark.parametrize(
        "preset,k_max", [("ref", 120), ("split_bus", 120), ("var", 120), ("small", 84)]
    )
    def test_every_member_trace_equals_its_capture(self, preset, k_max):
        """Field for field, for every k of the sweep: k=0 (no nop run) and
        the two anchors plus the verification member are captured, every
        later member is derived."""
        config = get_preset(preset)
        derived = []
        for k in range(k_max + 1):
            engine, used, _ = _sweep_point(config, k)
            assert used == _captured(config, k), f"{preset} k={k}"
            assert engine.fallback_reasons == {}
            derived.extend(k for _ in engine.derived_cores)
        assert derived == list(range(4, k_max + 1))
        stats = global_trace_cache().stats()
        assert stats["captures"] == 4
        assert stats["derived"] == k_max - 3
        assert stats["misses"] == 4

    def test_member_past_il1_residency_is_captured_with_a_reason(self):
        config = small_config()
        for k in range(1, 5):
            _sweep_point(config, k)
        engine, used, _ = _sweep_point(config, 85)
        assert engine.captured_cores == [0]
        assert engine.derived_cores == []
        assert "IL1 residency" in engine.fallback_reasons[0]
        assert used == _captured(config, 85)
        assert any(step.kind == "ifetch" for step in used.steps)
        assert global_trace_cache().counters["family_fallbacks"] == 1
        # The guard is per member: the family still derives resident ones.
        engine, _, _ = _sweep_point(config, 84)
        assert engine.derived_cores == [0]

    def test_underivable_family_captures_every_member_exactly(self):
        """The negative family: anchors captured without a preloaded IL1
        disagree (the ifetch count grows with k), so the family is marked
        underivable with a reason and every member is captured — and every
        run stays bit-identical to the stepped oracle."""
        config = small_config()
        cache = global_trace_cache()
        for k in range(1, 7):
            engine, _, result = _sweep_point(config, k, preload_il1=False)
            oracle = _nop_system(config, k, preload_il1=False).run(
                observed_cores=[0], engine="stepped"
            )
            assert _state(result) == _state(oracle), f"k={k}"
            assert engine.captured_cores == [0]
            assert engine.derived_cores == []
            if k >= 2:
                assert "nop family underivable" in engine.fallback_reasons[0]
                assert "step count" in engine.fallback_reasons[0]
        program = build_rsk_nop(config, 0, k=1, iterations=NOP_ITERATIONS)
        record = cache.family(nop_member(config, program, False, False).family)
        assert record.reason is not None and not record.verified
        assert record.captures == 6
        assert cache.counters["derived"] == 0
        assert cache.counters["family_fallbacks"] == 5

    def test_derived_members_replay_exactly_under_contention(self):
        config = get_preset("split_bus")
        for k in (1, 2, 3):
            _sweep_point(config, k, iterations=10)
        for k in (4, 27, 60):
            oracle = _nop_system(config, k, 10, contenders=True).run(
                observed_cores=[0], engine="stepped"
            )
            engine, _, result = _sweep_point(config, k, iterations=10, contenders=True)
            assert engine.derived_cores == [0]
            assert _state(result) == _state(oracle), f"k={k}"

    def test_anchors_live_outside_the_trace_lru(self, monkeypatch):
        config = small_config()
        cache = global_trace_cache()
        monkeypatch.setattr(cache, "max_entries", 2)
        for k in range(1, 13):
            _sweep_point(config, k)
        assert len(cache) == 2
        assert cache.counters["captures"] == 3
        assert cache.counters["derived"] == 9
        program = build_rsk_nop(config, 0, k=1, iterations=NOP_ITERATIONS)
        record = cache.family(nop_member(config, program, True, False).family)
        assert sorted(record.anchors) == [1, 2] and record.verified
        # k=1 left the LRU long ago; its anchor answers without a capture.
        engine, used, _ = _sweep_point(config, 1)
        assert engine.derived_cores == [0]
        assert used == _captured(config, 1)
        assert cache.counters["captures"] == 3


class TestNopSweepCaptures:
    def test_per_resource_derivation_captures_the_bus_family_at_most_three_times(
        self, capsys
    ):
        """The structural perf guard: a return to one capture per sweep
        point fails here, not only in the end-to-end benchmark."""
        argv = ["derive-ubd", "--per-resource"]
        clear_trace_cache()
        assert main(["--preset", "split_bus", "--engine", "replay", *argv]) == 0
        replay_out = capsys.readouterr().out
        config = get_preset("split_bus")
        scua = build_rsk_nop(config, 0, k=1, iterations=40)  # the CLI's --iterations
        record = global_trace_cache().family(nop_member(config, scua, True, False).family)
        assert record.verified
        assert record.captures <= 3
        assert global_trace_cache().counters["derived"] >= 57

        assert main(["--preset", "split_bus", "--engine", "event", *argv]) == 0
        assert capsys.readouterr().out == replay_out


# --------------------------------------------------------------------------- #
# Bench and compare surfaces.
# --------------------------------------------------------------------------- #


class TestBenchSurfaces:
    def test_replay_spec_is_a_trace_safe_arbiter_sweep(self):
        bench = next(b for b in CAMPAIGN_WORKLOADS if b.replay_compare)
        spec = bench.replay_spec(quick=True)
        assert spec.num_workloads == 0  # synthetic workloads contain stores
        assert spec.include_rsk_reference is True
        assert set(spec.arbiters) == set(bench.arbiters)
        assert len(spec.seeds) == 1
        full = bench.replay_spec(quick=False)
        assert full.rsk_iterations > spec.rsk_iterations

    def _payloads(self, old_entry, new_entry):
        base = {"schema": 4, "rev": "old", "quick": True}
        old = dict(base, campaigns=[old_entry])
        new = dict(base, schema=5, rev="new", campaigns=[new_entry])
        return old, new

    def test_metric_absent_from_baseline_warns_instead_of_raising(self):
        """An older-schema baseline simply predates campaign_replay_speedup:
        the gate must warn and pass, not crash with KeyError."""
        old, new = self._payloads(
            {"name": "sweep", "warm_speedup": 50.0},
            {"name": "sweep", "warm_speedup": 55.0, "campaign_replay_speedup": 2.4},
        )
        result = compare_payloads(old, new, metric="campaign_replay_speedup")
        assert result.ok
        assert any("NO BASELINE" in line for line in result.lines)
        assert any("absent from 1 baseline entry" in line for line in result.lines)

    def test_dropping_a_gated_metric_fails(self):
        old, new = self._payloads(
            {"name": "sweep", "warm_speedup": 50.0, "campaign_replay_speedup": 2.4},
            {"name": "sweep", "warm_speedup": 55.0},
        )
        result = compare_payloads(old, new, metric="campaign_replay_speedup")
        assert not result.ok
        assert any("METRIC LOST" in line for line in result.lines)
