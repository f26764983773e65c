"""Steadiness report: run the benchmark once per seed on each workload and
report, per end-to-end metric, the median and quartiles across the runs and
their spread (interquartile distance as a share of the median) against the
metric's bound in ``BENCHMARK.json``.

Usage (from the root of a checkout)::

    python3 perfbench/steadiness.py --workloads derive-load,campaign --seeds 1-10
    python3 perfbench/steadiness.py --seeds 1-10 --sets 2

With ``--sets 2`` every seed runs twice (set A, then set B) and the report
adds how much worse set B's median is than set A's, as a share of A's.  The
report is printed and written to ``.perfbench/steadiness.json``.  A spread
at or above a third of the bound is marked ``WIDE``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> List[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def _run(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, object]:
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=900,
    )
    if completed.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} exited with {completed.returncode}:\n"
            + completed.stderr.decode(errors="replace")
        )
    return json.loads(completed.stdout.decode().strip().splitlines()[-1])


def _worse(metric: Dict[str, object], first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main(argv: List[str]) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workloads", default=",".join(w["name"] for w in declared["workloads"])
    )
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=declared["run_seconds"])
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args(argv)

    metrics = {metric["name"]: metric for metric in declared["end_to_end"]}
    report: Dict[str, object] = {}
    for workload in args.workloads.split(","):
        sets: List[List[Dict[str, object]]] = []
        for _ in range(args.sets):
            runs = []
            for seed in _seeds(args.seeds):
                result = _run(workload, seed, args.seconds, 0)
                runs.append(result)
                print(
                    f"{workload} seed {seed}: correct={result['correct']} "
                    f"attempted={result['attempted']} failed={result['failed']} "
                    f"wall_s={result['metrics']['wall_s']['value']:.4f}",
                    flush=True,
                )
            sets.append(runs)
        rows = {}
        for name, metric in metrics.items():
            row: Dict[str, object] = {"bound": metric["bound"]}
            medians = []
            for index, runs in enumerate(sets):
                values = [run["metrics"][name]["value"] for run in runs]
                q1, q2, q3 = statistics.quantiles(values, n=4)
                median = statistics.median(values)
                medians.append(median)
                spread = (q3 - q1) / median if median else float("inf")
                row[f"set{index}"] = {
                    "median": median, "q1": q1, "q3": q3, "spread": spread,
                    "values": values,
                }
            if len(medians) == 2:
                row["second_worse_by"] = _worse(metric, medians[0], medians[1])
            rows[name] = row
        report[workload] = {
            "failed": sum(run["failed"] for runs in sets for run in runs),
            "attempted": sum(run["attempted"] for runs in sets for run in runs),
            "metrics": rows,
        }

    for workload, entry in report.items():
        print(f"\n{workload}: {entry['failed']} failed of {entry['attempted']} passes")
        print(f"{'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
        for name, row in entry["metrics"].items():
            for key in sorted(k for k in row if k.startswith("set")):
                cell = row[key]
                flag = "" if name == "setup_s" or cell["spread"] < row["bound"] / 3 else "WIDE"
                print(
                    f"{name:<18} {cell['median']:>12.5g} {cell['q1']:>12.5g} "
                    f"{cell['q3']:>12.5g} {cell['spread']:>7.3f} {row['bound']:>6} {flag}"
                )
            if "second_worse_by" in row:
                print(f"{'':<18} second set worse by {row['second_worse_by']:+.3f}")
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
