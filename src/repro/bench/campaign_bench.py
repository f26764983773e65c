"""Campaign-throughput benchmarks: runs/sec through the result store.

While :mod:`repro.bench.harness` times single simulations, this family
times whole *campaigns* through the durable
:class:`~repro.campaign.store.ResultStore`, capturing the three numbers
the campaign engine is optimised for:

* **cold** runs/sec — miss-frontier execution through shard dispatch;
* **warm** runs/sec — a re-run of an unchanged campaign, which must
  simulate nothing and resolve the whole grid from the store's SQLite
  index (a handful of batched queries, zero artifact reads);
* **parallel efficiency** — cold speedup per worker versus ``--jobs``.

The gated metric is ``warm_speedup`` (warm / cold runs per second): like
the engine ``speedup`` metrics it is a same-process ratio, so a committed
baseline stays meaningful on any CI host.  Raw runs/sec and the store's
operation counters are recorded for trend plots and the ≥10x-fewer-ops
acceptance check.

Each measurement also re-asserts the engine's core guarantees — a warm
re-run performs zero simulations and reads zero artifact files, and
parallel records equal serial records — so a broken guarantee surfaces as
a bench *error*, never as a silently fast number.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, replace as dataclass_replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..campaign import CampaignSpec, ParallelRunner, ResultStore
from ..errors import SimulationError
from ..sim.trace import clear_trace_cache, global_trace_cache


@dataclass(frozen=True)
class CampaignBench:
    """One timed campaign: a spec grid pushed through the result store.

    Attributes:
        name: stable identifier used to match entries across payloads.
        preset: platform preset the campaign sweeps.
        arbiters: bus arbitration policies of the grid.
        seeds: base seeds (each draws an independent workload set).
        quick_seeds: reduced seed axis for ``--quick`` (CI) runs.
        workloads / quick_workloads: random workloads per grid point.
        iterations / quick_iterations: observed-task loop iterations.
        rsk_iterations / quick_rsk_iterations: observed-rsk iterations.
        jobs_axis: worker counts measured for the parallel-efficiency
            series (cold, fresh store per point).
        replay_compare: also measure the replay-engine phase — a dedicated
            trace-safe arbiter sweep (see :meth:`replay_spec`) run through
            the ``replay`` engine with a cold trace cache versus a warm one
            (fresh result store each time, so every run still simulates
            the *interconnect*).  Produces ``campaign_replay_speedup``, the
            gated metric of the trace fast path.
        replay_rsk_iterations / quick_replay_rsk_iterations: observed-rsk
            iterations of the replay phase's sweep.  Deliberately much
            heavier than ``rsk_iterations``: the phase gates a *simulation*
            speedup, so simulated cycles must dominate the campaign's
            fixed per-run overhead (workload build, analysis, store I/O).
    """

    name: str
    preset: str
    arbiters: Tuple[str, ...] = ("round_robin",)
    seeds: Tuple[int, ...] = (2015,)
    quick_seeds: Tuple[int, ...] = (2015,)
    workloads: int = 4
    quick_workloads: int = 2
    iterations: int = 10
    quick_iterations: int = 5
    rsk_iterations: int = 20
    quick_rsk_iterations: int = 10
    jobs_axis: Tuple[int, ...] = (2,)
    replay_compare: bool = False
    replay_rsk_iterations: int = 600
    quick_replay_rsk_iterations: int = 300

    def spec(self, quick: bool) -> CampaignSpec:
        """The campaign grid at full or quick size."""
        return CampaignSpec(
            presets=(self.preset,),
            arbiters=self.arbiters,
            seeds=self.quick_seeds if quick else self.seeds,
            num_workloads=self.quick_workloads if quick else self.workloads,
            iterations=self.quick_iterations if quick else self.iterations,
            rsk_iterations=self.quick_rsk_iterations if quick else self.rsk_iterations,
        )

    def replay_spec(self, quick: bool) -> CampaignSpec:
        """The replay phase's grid: the reference rsk swept over every
        arbiter of the bench.

        Synthetic workloads contain stores, which are never trace-safe, so
        they fall back to execution-driven cores and would measure the
        fallback, not the fast path.  The load-kind reference rsk is the
        paper's own arbiter-sweep shape — the exact scenario the trace
        cache accelerates: one core-side capture per kernel, replayed
        across every arbiter of the sweep.
        """
        return CampaignSpec(
            presets=(self.preset,),
            arbiters=self.arbiters,
            seeds=(self.quick_seeds if quick else self.seeds)[:1],
            num_workloads=0,
            include_rsk_reference=True,
            rsk_iterations=(
                self.quick_replay_rsk_iterations if quick else self.replay_rsk_iterations
            ),
        )


def _grid() -> Tuple[CampaignBench, ...]:
    return (
        # Seed sweep on the 2-core platform: many runs per config object,
        # which is exactly the shape shard-level config dedup amortises.
        CampaignBench(
            name="small/seed-sweep",
            preset="small",
            seeds=(2015, 2016, 2017, 2018),
            quick_seeds=(2015, 2016),
        ),
        # Arbiter sweep on the paper's default 4-core platform: heavier
        # individual runs, four distinct configs in the frontier.  This is
        # the replay engine's home turf — the core side is identical
        # across the arbiter axis, so it also carries the replay phase.
        CampaignBench(
            name="ref/arbiter-sweep",
            preset="ref",
            arbiters=("round_robin", "fifo", "fixed_priority", "tdma"),
            workloads=4,
            quick_workloads=2,
            iterations=8,
            quick_iterations=4,
            rsk_iterations=16,
            quick_rsk_iterations=8,
            replay_compare=True,
        ),
    )


#: The campaign-throughput workload grid.
CAMPAIGN_WORKLOADS: Tuple[CampaignBench, ...] = _grid()


def _timed_run(
    runner: ParallelRunner, descriptors: Sequence[object]
) -> Tuple[float, object]:
    started = time.perf_counter()
    outcome = runner.run(descriptors)  # type: ignore[arg-type]
    return time.perf_counter() - started, outcome


def time_campaign(
    bench: CampaignBench, quick: bool, repeats: int
) -> Dict[str, object]:
    """Measure one campaign bench: cold, warm and parallel phases.

    Every phase keeps the best wall time of ``repeats`` attempts (cold and
    parallel attempts each get a fresh store; warm attempts share the store
    the last cold attempt populated).
    """
    descriptors = bench.spec(quick).expand()
    runs = len(descriptors)
    entry: Dict[str, object] = {
        "name": bench.name,
        "preset": bench.preset,
        "runs": runs,
    }
    with tempfile.TemporaryDirectory(prefix="repro-bench-campaign-") as tmp:
        base = Path(tmp)
        cold_seconds: Optional[float] = None
        reference: Optional[Tuple[Dict[str, object], ...]] = None
        warm_dir: Optional[Path] = None
        for attempt in range(max(1, repeats)):
            directory = base / f"cold-{attempt}"
            with ResultStore(directory, campaign_id=bench.name) as store:
                elapsed, outcome = _timed_run(ParallelRunner(jobs=1, cache=store), descriptors)
            if outcome.stats["simulated"] != outcome.stats["unique_runs"]:
                raise SimulationError(
                    f"{bench.name}: cold campaign hit a fresh store "
                    f"({outcome.stats['simulated']} simulated of "
                    f"{outcome.stats['unique_runs']} unique runs)"
                )
            if reference is None:
                reference = outcome.records
                entry["unique_runs"] = outcome.stats["unique_runs"]
            if cold_seconds is None or elapsed < cold_seconds:
                cold_seconds = elapsed
            warm_dir = directory
        assert cold_seconds is not None and warm_dir is not None and reference is not None

        warm_seconds: Optional[float] = None
        warm_counters: Dict[str, int] = {}
        with ResultStore(warm_dir, campaign_id=bench.name) as store:
            for _ in range(max(1, repeats)):
                store.counters.reset()
                elapsed, outcome = _timed_run(ParallelRunner(jobs=1, cache=store), descriptors)
                if outcome.stats["simulated"] != 0:
                    raise SimulationError(
                        f"{bench.name}: warm re-run simulated "
                        f"{outcome.stats['simulated']} run(s); the store "
                        "failed to dedupe an unchanged campaign"
                    )
                if store.counters.artifact_reads != 0:
                    raise SimulationError(
                        f"{bench.name}: warm re-run read "
                        f"{store.counters.artifact_reads} artifact file(s); "
                        "the index should have answered from its inline records"
                    )
                if outcome.records != reference:
                    raise SimulationError(
                        f"{bench.name}: warm records differ from cold records"
                    )
                if warm_seconds is None or elapsed < warm_seconds:
                    warm_seconds = elapsed
                    warm_counters = store.counters.as_dict()
        assert warm_seconds is not None

        parallel: Dict[str, Dict[str, float]] = {}
        for jobs in bench.jobs_axis:
            best: Optional[float] = None
            for attempt in range(max(1, repeats)):
                directory = base / f"par{jobs}-{attempt}"
                with ResultStore(directory, campaign_id=bench.name) as store:
                    elapsed, outcome = _timed_run(
                        ParallelRunner(jobs=jobs, cache=store), descriptors
                    )
                if outcome.records != reference:
                    raise SimulationError(
                        f"{bench.name}: parallel (jobs={jobs}) records differ "
                        "from serial records"
                    )
                if best is None or elapsed < best:
                    best = elapsed
            assert best is not None
            speedup = cold_seconds / best if best else 0.0
            parallel[str(jobs)] = {
                "seconds": best,
                "runs_per_sec": runs / best if best else 0.0,
                "speedup": speedup,
                "efficiency": speedup / jobs,
            }

        if bench.replay_compare:
            entry["replay"] = _time_replay_phase(bench, quick, repeats, base)
            cold_rps_replay = entry["replay"]["cold"]["runs_per_sec"]
            warm_rps_replay = entry["replay"]["warm"]["runs_per_sec"]
            entry["campaign_replay_speedup"] = (
                warm_rps_replay / cold_rps_replay if cold_rps_replay else 0.0
            )

    cold_rps = runs / cold_seconds if cold_seconds else 0.0
    warm_rps = runs / warm_seconds if warm_seconds else 0.0
    entry["cold"] = {"seconds": cold_seconds, "runs_per_sec": cold_rps}
    entry["warm"] = {
        "seconds": warm_seconds,
        "runs_per_sec": warm_rps,
        "counters": warm_counters,
    }
    entry["warm_speedup"] = warm_rps / cold_rps if cold_rps else 0.0
    entry["parallel"] = parallel
    return entry


def _time_replay_phase(
    bench: CampaignBench, quick: bool, repeats: int, base: Path
) -> Dict[str, object]:
    """The trace fast path's gated measurement.

    Times the bench's trace-safe arbiter sweep (:meth:`CampaignBench.replay_spec`)
    on the ``replay`` engine twice over, each attempt through a fresh result
    store (so every run simulates the interconnect):

    * trace-cold — the trace cache is cleared before each attempt, so the
      campaign captures every kernel's core side on the generated loop,
      re-simulating the cache hierarchy as a first run does;
    * trace-warm — the timed campaigns stream the traces the last cold
      attempt memoised.

    The memoisation guarantee is asserted on the trace-cache counters: the
    timed warm campaigns must capture *zero* traces — every core side of
    the sweep (observed rsk and contenders alike) replays from the cache,
    so no cache-hierarchy simulation happens after the first capture — and
    must reproduce the cold campaign's records exactly.
    """
    descriptors = dataclass_replace(bench.replay_spec(quick), engine="replay").expand()
    runs = len(descriptors)
    cache = global_trace_cache()

    cold_seconds: Optional[float] = None
    reference: Optional[Tuple[Dict[str, object], ...]] = None
    for attempt in range(max(1, repeats)):
        clear_trace_cache()
        with ResultStore(base / f"replaycmp-cold-{attempt}", campaign_id=bench.name) as store:
            elapsed, outcome = _timed_run(ParallelRunner(jobs=1, cache=store), descriptors)
        if reference is None:
            reference = outcome.records
        if cold_seconds is None or elapsed < cold_seconds:
            cold_seconds = elapsed
    assert cold_seconds is not None and reference is not None

    warm_seconds: Optional[float] = None
    warm_counters: Dict[str, int] = {}
    for attempt in range(max(1, repeats)):
        cache.reset_counters()
        with ResultStore(base / f"replaycmp-warm-{attempt}", campaign_id=bench.name) as store:
            elapsed, outcome = _timed_run(ParallelRunner(jobs=1, cache=store), descriptors)
        if cache.counters["captures"] != 0:
            raise SimulationError(
                f"{bench.name}: trace-warm replay campaign captured "
                f"{cache.counters['captures']} core trace(s); the core side "
                "should have been memoised by the trace-cold campaign"
            )
        if cache.counters["hits"] == 0:
            raise SimulationError(
                f"{bench.name}: trace-warm replay campaign hit zero cached "
                "traces; the grid is not exercising the fast path"
            )
        if outcome.records != reference:
            raise SimulationError(
                f"{bench.name}: trace-warm replay campaign records differ from "
                "trace-cold records"
            )
        if warm_seconds is None or elapsed < warm_seconds:
            warm_seconds = elapsed
            warm_counters = dict(cache.stats())
    assert warm_seconds is not None
    clear_trace_cache()

    return {
        "runs": runs,
        "cold": {
            "seconds": cold_seconds,
            "runs_per_sec": runs / cold_seconds if cold_seconds else 0.0,
        },
        "warm": {
            "seconds": warm_seconds,
            "runs_per_sec": runs / warm_seconds if warm_seconds else 0.0,
            "trace_cache": warm_counters,
        },
    }


def run_campaign_benchmarks(
    campaigns: Sequence[CampaignBench] = CAMPAIGN_WORKLOADS,
    quick: bool = False,
    repeats: int = 2,
) -> List[Dict[str, object]]:
    """Time every campaign bench and return the ``campaigns`` payload section."""
    return [time_campaign(bench, quick, repeats) for bench in campaigns]
