"""The perf-regression compare gate.

Compares two BENCH payloads workload by workload and fails when the gated
metric of any workload dropped by more than the allowed fraction.  The
default metric is ``speedup`` (event vs stepped, measured in the same
process), which is a same-machine ratio and therefore meaningful even when
the two payloads were produced on different hosts — e.g. a committed
baseline compared against a CI runner.  ``cycles_per_sec`` can be gated
instead when both payloads come from the same machine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence

from .harness import BENCH_SCHEMA_VERSION

#: Metrics the gate can check.  ``speedup`` is the event engine vs the
#: stepped oracle; ``replay_cold_speedup`` gates the replay engine with an
#: empty trace cache (capture runs on the generated loop) the same
#: host-independent way; ``campaign_warm_speedup`` gates the result
#: store's warm-hit path (warm vs cold runs/sec of the ``campaigns``
#: section — also a same-process ratio); ``service_warm_speedup`` gates
#: the serve daemon's multi-client warm path (aggregate warm runs/sec of
#: concurrent clients vs cold, from the ``services`` section);
#: ``cycles_per_sec`` (event engine) is only meaningful when both
#: payloads come from the same machine.
#: ``replay_speedup`` gates the trace-warm replay engine per workload and
#: ``campaign_replay_speedup`` the replay-engine campaign phase (trace-warm
#: vs trace-cold replay campaign runs/sec).
METRICS = (
    "speedup",
    "replay_cold_speedup",
    "replay_speedup",
    "campaign_warm_speedup",
    "campaign_replay_speedup",
    "service_warm_speedup",
    "cycles_per_sec",
)


@dataclass
class CompareResult:
    """Outcome of one payload comparison.

    Attributes:
        ok: True when no workload regressed beyond the tolerance.
        lines: human-readable report (one row per compared workload).
        regressions: names of the workloads that failed the gate.
    """

    ok: bool
    lines: List[str] = field(default_factory=list)
    regressions: List[str] = field(default_factory=list)

    def render(self) -> str:
        """The report as a single printable string."""
        return "\n".join(self.lines)


def load_payload(path) -> Dict[str, object]:
    """Read a BENCH_*.json payload, validating its schema stamp.

    Payloads written by *older* schemas load fine — the section layout is
    append-only, and :func:`compare_payloads` warns (instead of crashing)
    when the gated metric predates the baseline.  A *newer* stamp than the
    tool's is still refused: its metrics may have changed meaning.
    """
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    schema = data.get("schema")
    if not isinstance(schema, int) or schema > BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: BENCH schema {schema!r} is newer than "
            f"this tool's schema {BENCH_SCHEMA_VERSION}"
        )
    return data


def _metric_of(entry: Dict[str, object], metric: str) -> float:
    """The gated metric's value in ``entry``.

    Raises :class:`KeyError` when the entry predates the metric (an
    older-schema baseline); callers turn that into a warning, not a crash.
    """
    if metric == "speedup":
        return float(entry["speedup"])
    if metric == "replay_cold_speedup":
        return float(entry["speedups"]["replay_cold"])
    if metric == "replay_speedup":
        return float(entry["speedups"]["replay"])
    if metric == "campaign_warm_speedup":
        return float(entry["warm_speedup"])
    if metric == "campaign_replay_speedup":
        return float(entry["campaign_replay_speedup"])
    if metric == "service_warm_speedup":
        return float(entry["multi_client_warm_speedup"])
    if metric == "cycles_per_sec":
        return float(entry["engines"]["event"]["cycles_per_sec"])
    raise ValueError(f"unknown metric {metric!r}; available: {list(METRICS)}")


def _section_of(metric: str) -> str:
    """The payload section a metric gates: engine metrics live under
    ``workloads``, campaign metrics under ``campaigns``, service metrics
    under ``services``."""
    if metric.startswith("campaign_"):
        return "campaigns"
    if metric.startswith("service_"):
        return "services"
    return "workloads"


def compare_payloads(
    old: Dict[str, object],
    new: Dict[str, object],
    max_regression: float = 0.15,
    metric: str = "speedup",
) -> CompareResult:
    """Gate ``new`` against ``old``: every old workload must still exist and
    must not have lost more than ``max_regression`` of its metric.

    Workloads only present in ``new`` — scenarios the baseline predates —
    are *additions*: they are reported with a warning asking for a baseline
    refresh, but never gated, so adding bench coverage cannot fail the
    build.  (Workloads that *disappear* from ``new`` still fail: losing
    coverage silently is a regression.)
    """
    if not 0 <= max_regression < 1:
        raise ValueError(f"max_regression must be in [0, 1), got {max_regression}")
    section = _section_of(metric)
    old_entries = {entry["name"]: entry for entry in old.get(section, [])}
    new_entries = {entry["name"]: entry for entry in new.get(section, [])}
    result = CompareResult(ok=True)
    result.lines.append(
        f"comparing {metric} (old rev {old.get('rev')}, new rev {new.get('rev')}, "
        f"max regression {max_regression:.0%})"
    )
    if old.get("quick") != new.get("quick"):
        result.lines.append(
            f"warning: payloads were measured at different sizes "
            f"(old quick={old.get('quick')}, new quick={new.get('quick')}); "
            "speedups are not directly comparable — regenerate the baseline "
            "at the same size"
        )
    result.lines.append(f"{'workload':28s} {'old':>9s} {'new':>9s} {'ratio':>7s}  verdict")
    unmeasured: List[str] = []
    for name, old_entry in old_entries.items():
        new_entry = new_entries.get(name)
        if new_entry is None:
            result.ok = False
            result.regressions.append(name)
            result.lines.append(f"{name:28s} {'-':>9s} {'-':>9s} {'-':>7s}  MISSING")
            continue
        try:
            old_value = _metric_of(old_entry, metric)
        except KeyError:
            # The baseline predates this metric (older BENCH schema, or an
            # entry that never carried it): warn, never gate — exactly like
            # a workload missing from the baseline.
            unmeasured.append(name)
            try:
                new_value = _metric_of(new_entry, metric)
            except KeyError:
                result.lines.append(
                    f"{name:28s} {'-':>9s} {'-':>9s} {'-':>7s}  NO METRIC"
                )
            else:
                result.lines.append(
                    f"{name:28s} {'-':>9s} {new_value:>9.2f} {'-':>7s}  NO BASELINE"
                )
            continue
        try:
            new_value = _metric_of(new_entry, metric)
        except KeyError:
            # The candidate dropped a metric the baseline gates: that is a
            # coverage loss, like a disappearing workload.
            result.ok = False
            result.regressions.append(name)
            result.lines.append(
                f"{name:28s} {old_value:>9.2f} {'-':>9s} {'-':>7s}  METRIC LOST"
            )
            continue
        ratio = new_value / old_value if old_value else 0.0
        regressed = ratio < 1.0 - max_regression
        if regressed:
            result.ok = False
            result.regressions.append(name)
        result.lines.append(
            f"{name:28s} {old_value:>9.2f} {new_value:>9.2f} {ratio:>7.2f}  "
            f"{'REGRESSED' if regressed else 'ok'}"
        )
    additions = [name for name in new_entries if name not in old_entries]
    for name in additions:
        try:
            added_value = f"{_metric_of(new_entries[name], metric):>9.2f}"
        except KeyError:
            added_value = f"{'-':>9s}"
        result.lines.append(
            f"{name:28s} {'-':>9s} {added_value} {'-':>7s}  ADDED"
        )
    if additions:
        result.lines.append(
            f"warning: {len(additions)} workload(s) missing from the baseline "
            f"treated as additions (not gated): {', '.join(additions)}; "
            "refresh the baseline to start gating them"
        )
    if unmeasured:
        result.lines.append(
            f"warning: metric {metric!r} is absent from {len(unmeasured)} "
            f"baseline entr{'y' if len(unmeasured) == 1 else 'ies'} "
            f"(older BENCH schema?): {', '.join(unmeasured)}; not gated — "
            "regenerate the baseline to start gating them"
        )
    verdict = "PASS" if result.ok else "FAIL"
    result.lines.append(
        f"{verdict}: {len(result.regressions)} regression(s) out of "
        f"{len(old_entries)} gated workload(s)"
    )
    return result


def compare_files(
    old_path,
    new_paths: Sequence,
    max_regression: float = 0.15,
    metric: str = "speedup",
) -> CompareResult:
    """File-level wrapper: gate every payload in ``new_paths`` against ``old_path``."""
    old = load_payload(old_path)
    merged = CompareResult(ok=True)
    for new_path in new_paths:
        result = compare_payloads(
            old, load_payload(new_path), max_regression=max_regression, metric=metric
        )
        merged.ok = merged.ok and result.ok
        merged.lines.extend(result.lines)
        merged.regressions.extend(result.regressions)
    return merged
