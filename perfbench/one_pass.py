"""One pass of a workload, in a fresh interpreter.

Started by ``perfbench/run.py`` as ``python -m perfbench.one_pass`` from the
checkout root with ``src`` on ``PYTHONPATH``, so the process-wide trace and
generated-loop caches start empty, as they do for a user of the CLI.  The
pass imports the package, installs the probes, prepares the workload, stamps
the moment it is ready (the driver subtracts the moment it spawned the
process: ``setup_s``), runs the cold leg and the warm legs, checks each
leg's outputs and writes one JSON result file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path
from typing import Dict, List


def _digest(outputs: object, sims) -> Dict[str, object]:
    """Exact simulated outputs of a leg: a hash of the checked outputs plus
    the simulation count and the simulated cycles."""
    encoded = json.dumps(outputs, sort_keys=True, separators=(",", ":")).encode()
    return {
        "outputs_sha256": hashlib.sha256(encoded).hexdigest(),
        "sim.runs": len(sims),
        "sim.cycles": sum(cycles for _ns, cycles, _kind in sims),
    }


def _layer_metrics(probes, cold, warm, import_s: float, jobs: int) -> Dict[str, float]:
    """Per-layer metrics of a traced pass (every name, zero where idle)."""
    sims, spans, compiles = cold["sims"], cold["spans"], cold["compiles"]
    seconds, calls = probes.self_times(spans)
    layer = probes.layer_self_time
    metrics: Dict[str, float] = {
        "cli.import_s": import_s,
        "cli.self_s": layer(seconds, "cli"),
        "kernels.builds": calls["kernels.build"],
        "kernels.build_s": layer(seconds, "kernels"),
        "sim.runs": len(sims),
        "sim.cycles": sum(cycles for _ns, cycles, _kind in sims),
        "sim.run_s": layer(seconds, "sim.run"),
        "sim.build_s": layer(seconds, "sim.build"),
    }
    for kind in ("capture", "replay", "exec"):
        metrics[f"sim.{kind}_runs"] = sum(1 for sim in sims if sim[2] == kind)
        metrics[f"sim.{kind}_run_s"] = seconds.get(f"sim.run.{kind}", 0.0)
    stats = cold["trace_stats"]
    lookups = stats.get("hits", 0) + stats.get("misses", 0)
    metrics.update(
        {
            "trace.captures": stats.get("captures", 0),
            "trace.hits": stats.get("hits", 0),
            "trace.misses": stats.get("misses", 0),
            "trace.unsafe": stats.get("unsafe", 0),
            "trace.hit_ratio": stats.get("hits", 0) / lookups if lookups else 0.0,
            "codegen.compiles": compiles,
            "codegen.compile_s": layer(seconds, "codegen"),
            "methodology.self_s": layer(seconds, "methodology"),
            "methodology.sweep_points": calls["methodology.sweep_point"],
            "methodology.stress_s": seconds.get("methodology.stress", 0.0),
            "analysis.period_s": seconds.get("analysis.period", 0.0),
            "analysis.self_s": layer(seconds, "analysis"),
            "campaign.expand_s": seconds.get("campaign.expand", 0.0),
            "campaign.shards": cold["counters"].get("campaign.shards", 0),
            "campaign.shard_s": seconds.get("campaign.shard", 0.0),
            "store.put_many_s": seconds.get("store.put_many", 0.0),
            "store.artifact_writes": cold["counters"].get("store.artifact_writes", 0),
            "tracing.spans": len(spans),
        }
    )
    busy_ns = sum(end - start for _id, _p, name, start, end in spans if name == "campaign.shard")
    metrics["pool.efficiency"] = busy_ns / 1e9 / (jobs * cold["wall_s"])
    warm_metrics: Dict[str, List[float]] = {
        "store.get_many_s": [],
        "store.index_queries": [],
        "store.artifact_reads": [],
        "store.hit_ratio": [],
        "artifacts.write_s": [],
    }
    for leg in warm:
        leg_seconds, _calls = probes.self_times(leg["spans"])
        warm_metrics["store.get_many_s"].append(leg_seconds.get("store.get_many", 0.0))
        warm_metrics["artifacts.write_s"].append(leg_seconds.get("artifacts.write", 0.0))
        for name in ("store.index_queries", "store.artifact_reads", "store.hit_ratio"):
            warm_metrics[name].append(leg["counters"].get(name, 0))
    for name, values in warm_metrics.items():
        values.sort()
        metrics[name] = values[len(values) // 2] if values else 0
    return metrics


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    import repro.cli  # noqa: F401  - the import a CLI user pays

    import_s = time.perf_counter() - started
    from repro.sim.trace import global_trace_cache

    from perfbench import probes
    from perfbench.workloads import WORKLOADS

    spill_dir = args.work_dir / "spill"
    spill_dir.mkdir(parents=True, exist_ok=True)
    recorder = probes.Recorder(traced=bool(args.traced), spill_dir=spill_dir)
    probes.install(recorder)
    workload = WORKLOADS[args.workload](args.seed, args.work_dir)
    workload.prepare()
    ready_ns = probes.clock_ns()

    legs = []
    problems: List[str] = []
    for index in range(1 + workload.warm_legs):
        stats_before = global_trace_cache().stats()
        recorder.take()
        start = probes.clock_ns()
        leg = workload.leg(index)
        wall_s = (probes.clock_ns() - start) / 1e9
        recorder.absorb_spills()
        sims, spans, compiles = recorder.take()
        stats_after = global_trace_cache().stats()
        digest = _digest(leg.outputs, sims) if index == 0 else None
        if index > 0 and workload.name != "campaign":
            if _digest(leg.outputs, sims) != legs[0]["digest"]:
                leg.problems.append("warm leg outputs differ from the cold leg")
        problems.extend(f"leg {index}: {problem}" for problem in leg.problems)
        legs.append(
            {
                "wall_s": wall_s,
                "sims": sims,
                "spans": spans,
                "compiles": compiles,
                "runs": leg.runs if leg.runs is not None else len(sims),
                "counters": leg.counters,
                "digest": digest,
                "trace_stats": {
                    name: stats_after[name] - stats_before.get(name, 0) for name in stats_after
                },
            }
        )
    cold, warm = legs[0], legs[1:]
    if not cold["sims"]:
        problems.append("no System.run call was observed")
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result = {
        "ok": not problems,
        "problems": problems,
        "missing_probes": recorder.missing,
        "ready_ns": ready_ns,
        "import_s": import_s,
        "wall_s": cold["wall_s"],
        "warm_wall_s": [leg["wall_s"] for leg in warm],
        "runs": cold["runs"],
        "sims": cold["sims"],
        "digest": cold["digest"],
        "peak_rss_mb": rss_kb / 1024,
        "trace_stats": cold["trace_stats"],
    }
    if args.traced:
        jobs = getattr(workload, "jobs", 1)
        result["layers"] = _layer_metrics(probes, cold, warm, import_s, jobs)
        result["spans"] = {"cold": cold["spans"], "warm": [leg["spans"] for leg in warm]}
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
