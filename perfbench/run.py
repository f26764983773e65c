"""End-to-end benchmark driver.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload derive-load --seed 1 --seconds 30 --trace 0

Runs passes of one workload until ``--seconds`` are used up, each pass in a
fresh interpreter (``perfbench/one_pass.py``), checks every pass's outputs
and that the simulated-output digest repeats exactly across passes, and
prints one JSON line last on standard output::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the ``end_to_end`` metrics of
``BENCHMARK.json``, from untraced passes only.  With ``--trace 1`` traced
and untraced passes alternate; the metrics are the ``per_layer`` ones,
medians over the traced passes, plus the tracing overhead (traced minus
untraced ``wall_s``).  Spans of traced passes and a per-run report are
written under ``.perfbench/`` in the checkout.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("derive-load", "campaign")
#: Passes every run makes before it may stop, whatever ``--seconds`` says.
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
#: A run must end within this many seconds of its start: a pass still
#: running then is killed and counted as failed.
RUN_LIMIT_S = 170


def _spawn_pass(
    workload: str, seed: int, traced: bool, work_dir: Path, timeout_s: float
) -> Dict[str, object]:
    """Run one pass; returns its result (``ok`` False on any failure)."""
    if work_dir.exists():
        shutil.rmtree(work_dir)
    work_dir.mkdir(parents=True)
    result_path = work_dir / "result.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable, "-m", "perfbench.one_pass",
        "--workload", workload, "--seed", str(seed), "--work-dir", str(work_dir),
        "--traced", str(int(traced)), "--result", str(result_path),
    ]
    spawn_ns = time.monotonic_ns()
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        _out, err = process.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return {"ok": False, "problems": [f"pass killed after {timeout_s:.0f} s"]}
    finally:
        _reap_group(process.pid)
    elapsed_s = (time.monotonic_ns() - spawn_ns) / 1e9
    if process.returncode != 0 or not result_path.exists():
        tail = err.decode(errors="replace").strip().splitlines()[-5:]
        return {
            "ok": False,
            "elapsed_s": elapsed_s,
            "problems": [f"pass exited with {process.returncode}"] + tail,
        }
    result = json.loads(result_path.read_text())
    result["setup_s"] = (result["ready_ns"] - spawn_ns) / 1e9
    result["elapsed_s"] = elapsed_s
    result["traced"] = traced
    return result


def _reap_group(pgid: int) -> None:
    """Kill anything left in a pass's process group (the pool workers of a
    pass that died) and wait, up to 5 s, until the group is gone."""
    for _ in range(100):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _check_digests(passes: List[Dict[str, object]]) -> None:
    """Fail every pass whose simulated-output digest differs from the first
    correct pass's."""
    reference: Optional[object] = None
    for result in passes:
        if not result["ok"]:
            continue
        if reference is None:
            reference = result["digest"]
        elif result["digest"] != reference:
            result["ok"] = False
            result["problems"].append(
                f"simulated-output digest {result['digest']} != first pass {reference}"
            )


def _end_to_end(passes: List[Dict[str, object]], attempted: int) -> Dict[str, float]:
    sim_ms = sorted(ns / 1e6 for result in passes for ns, _c, _k in result["sims"])
    deciles = quantiles(sim_ms, n=10)
    cycles = [sum(c for _ns, c, _k in result["sims"]) for result in passes]
    return {
        "setup_s": median([result["setup_s"] for result in passes]),
        "wall_s": median([result["wall_s"] for result in passes]),
        "warm_wall_s": median([s for result in passes for s in result["warm_wall_s"]]),
        "peak_rss_mb": median([result["peak_rss_mb"] for result in passes]),
        "sim_cycles_per_s": median(
            [c / result["wall_s"] for c, result in zip(cycles, passes)]
        ),
        "sim_ms_p50": deciles[4],
        "sim_ms_p90": deciles[8],
        "runs_per_s": median([result["runs"] / result["wall_s"] for result in passes]),
        "ok_frac": len(passes) / attempted,
    }


def _per_layer(
    traced: List[Dict[str, object]], untraced: List[Dict[str, object]]
) -> Dict[str, float]:
    metrics = {
        name: median([result["layers"][name] for result in traced])
        for name in traced[0]["layers"]
    }
    traced_wall = median([result["wall_s"] for result in traced])
    untraced_wall = median([result["wall_s"] for result in untraced])
    metrics["tracing.overhead_s"] = traced_wall - untraced_wall
    metrics["tracing.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    return metrics


def _declared(section: str) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in declared[section]}


def main(argv: List[str]) -> int:
    launched = time.monotonic()
    parser = argparse.ArgumentParser(description="End-to-end benchmark driver.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = _declared("per_layer" if args.trace else "end_to_end")
    run_dir = OUT / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # Compile the bytecode once, untimed, so the first pass's set-up is not
    # an outlier in a fresh checkout.
    warmup = subprocess.run(
        [sys.executable, "-c", "import repro.cli, perfbench.one_pass"], cwd=ROOT, env=env,
        stderr=subprocess.PIPE,
    )
    if warmup.returncode != 0:
        sys.stderr.write(warmup.stderr.decode(errors="replace"))
        return 2

    passes: List[Dict[str, object]] = []
    started = time.monotonic()
    deadline = launched + RUN_LIMIT_S
    try:
        while True:
            traced_next = bool(args.trace) and len(passes) % 2 == 0
            done = len(passes)
            traced_done = sum(1 for result in passes if result.get("traced"))
            enough = done >= MIN_PASSES and (
                not args.trace or traced_done >= MIN_TRACED_PASSES
            )
            if enough:
                typical = median([result.get("elapsed_s", 0.0) for result in passes])
                if time.monotonic() - started + typical > args.seconds:
                    break
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            passes.append(
                _spawn_pass(
                    args.workload, args.seed, traced_next, run_dir / f"pass{done}", remaining
                )
            )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    _check_digests(passes)
    good = [result for result in passes if result["ok"]]
    attempted, failed = len(passes), len(passes) - len(good)
    untraced = [result for result in good if not result.get("traced")]
    traced = [result for result in good if result.get("traced")]
    if not untraced or (args.trace and not traced):
        for index, result in enumerate(passes):
            for problem in result["problems"]:
                print(f"pass {index}: {problem}", file=sys.stderr)
        print("error: no correct pass to measure", file=sys.stderr)
        return 1
    if args.trace:
        values = _per_layer(traced, untraced)
    else:
        values = _end_to_end(untraced, attempted)
    if set(values) != set(declared):
        print(
            f"error: measured {sorted(set(values) ^ set(declared))} "
            "disagree with BENCHMARK.json",
            file=sys.stderr,
        )
        return 2

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "digest": good[0]["digest"],
        "problems": {str(i): r["problems"] for i, r in enumerate(passes) if r["problems"]},
        "missing_probes": good[0].get("missing_probes", []),
        "passes": [
            {key: result.get(key) for key in ("traced", "setup_s", "wall_s", "warm_wall_s")}
            for result in good
        ],
        "metrics": values,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"report-{stem}.json").write_text(json.dumps(report, indent=1))
    if traced:
        spans = [{"pass": i, "spans": r["spans"]} for i, r in enumerate(good) if r.get("traced")]
        (OUT / f"spans-{stem}.json").write_text(json.dumps(spans))
    for index, result in enumerate(passes):
        for problem in result["problems"]:
            print(f"pass {index}: {problem}", file=sys.stderr)
    print(json.dumps(report["digest"], sort_keys=True), file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
