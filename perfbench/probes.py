"""Layer probes recorded from outside the ``repro`` package.

Every probe wraps a *public* callable of one layer; nothing under ``src/``
is edited and no private hook is called.  Two kinds of record are kept:

* **simulation samples** (always on): one ``(ns, cycles, kind)`` tuple per
  ``System.run`` call.  ``kind`` classifies the run by the process-wide trace
  cache counters read before and after it: ``capture`` when a trace was
  captured, ``replay`` when a lookup hit and nothing was captured, ``exec``
  otherwise (a fully execution-driven run).  The cost is two clock reads and
  two counter snapshots per simulation, so untraced passes carry them too:
  they feed the end-to-end ``sim_ms_*`` and ``sim_cycles_per_s`` metrics.
* **spans** (traced passes only): ``[id, parent, name, start_ns, end_ns]``
  around each wrapped call, kept in memory and handed to the caller when a
  leg of the pass ends.  A layer's self time is its spans' durations minus
  the time their child spans cover.

Campaign shards run in pool worker processes.  The ``execute_shard`` wrapper
notices that it runs in a process other than the one that installed the
probes (the worker is a fork of it), starts empty buffers there and, after
each shard, spills that worker's samples and spans to a JSON file in the
pass's spill directory, which the pass merges once the campaign returns.
All timestamps come from ``CLOCK_MONOTONIC``, one time base for the pass
and its workers.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

clock_ns = time.monotonic_ns

#: ``(module, function, span name)``: public functions.  Each is replaced in
#: every ``repro`` module that imported it by name, so callers see the probe
#: whichever import path they used.
FUNCTION_SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.cli", "main", "cli.main"),
    ("repro.kernels.rsk", "build_rsk", "kernels.build"),
    ("repro.kernels.rsk", "build_rsk_nop", "kernels.build"),
    ("repro.kernels.rsk", "build_nop_kernel", "kernels.build"),
    ("repro.kernels.rsk", "build_bank_conflict_rsk", "kernels.build"),
    ("repro.kernels.rsk", "build_response_conflict_rsk", "kernels.build"),
    ("repro.kernels.rsk", "build_stress_contender_set", "kernels.build"),
    ("repro.kernels.synthetic", "build_synthetic_kernel", "kernels.build"),
    ("repro.analysis.injection", "derive_delta_nop", "analysis.delta_nop"),
    ("repro.analysis.contention", "latency_decomposition", "analysis.decompose"),
)

#: ``(module, class, method, span name)``: public methods, patched on the class.
METHOD_SPANS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.sim.system", "System", "__init__", "sim.build"),
    ("repro.methodology.ubd", "UbdEstimator", "run", "methodology.estimate"),
    ("repro.methodology.ubd", "UbdEstimator", "sweep", "methodology.sweep"),
    ("repro.methodology.ubd", "UbdEstimator", "measure_point", "methodology.sweep_point"),
    ("repro.methodology.ubd", "MeasuredBoundPipeline", "run", "methodology.pipeline"),
    ("repro.methodology.ubd", "MeasuredBoundPipeline", "run_stress", "methodology.stress"),
    ("repro.analysis.sawtooth", "SawtoothAnalyzer", "__init__", "analysis.period"),
    ("repro.analysis.sawtooth", "SawtoothAnalyzer", "estimate", "analysis.period"),
    ("repro.campaign.spec", "CampaignSpec", "expand", "campaign.expand"),
    ("repro.campaign.runner", "ParallelRunner", "run", "campaign.run"),
    ("repro.campaign.store", "ResultStore", "__init__", "store.open"),
    ("repro.campaign.store", "ResultStore", "get_many", "store.get_many"),
    ("repro.campaign.store", "ResultStore", "put_many", "store.put_many"),
    ("repro.campaign.artifacts", "CampaignStreamWriter", "begin", "artifacts.write"),
    ("repro.campaign.artifacts", "CampaignStreamWriter", "append", "artifacts.write"),
    ("repro.campaign.artifacts", "CampaignStreamWriter", "checkpoint", "artifacts.write"),
    ("repro.campaign.artifacts", "CampaignStreamWriter", "finalize", "artifacts.write"),
)

Span = List[object]  # [id, parent id or None, name, start_ns, end_ns]
Sim = Tuple[int, int, str]  # (host ns, simulated cycles, kind)


class Recorder:
    """In-memory buffers of one process's simulation samples and spans.

    Args:
        traced: record spans (simulation samples are always recorded).
        spill_dir: where pool workers write their buffers after each shard.
    """

    def __init__(self, traced: bool, spill_dir: Path) -> None:
        self.traced = traced
        self.spill_dir = Path(spill_dir)
        self.owner_pid = os.getpid()
        self.pid = self.owner_pid
        self.sims: List[Sim] = []
        self.spans: List[Span] = []
        self.compiles = 0
        self.missing: List[str] = []
        self._stack: List[Span] = []
        self._ids = 0

    # -- spans ------------------------------------------------------------ #
    def open(self, name: str) -> Optional[Span]:
        """Start a span under the innermost open one (``None`` if untraced)."""
        if not self.traced:
            return None
        self._ids += 1
        parent = self._stack[-1][0] if self._stack else None
        span: Span = [f"{self.pid}:{self._ids}", parent, name, clock_ns(), 0]
        self._stack.append(span)
        return span

    def close(self, span: Optional[Span]) -> None:
        if span is None:
            return
        span[4] = clock_ns()
        self._stack.pop()
        self.spans.append(span)

    def take(self) -> Tuple[List[Sim], List[Span], int]:
        """Hand over and clear the buffers (one leg of a pass)."""
        taken = (self.sims, self.spans, self.compiles)
        self.sims, self.spans, self.compiles = [], [], 0
        return taken

    # -- pool workers ----------------------------------------------------- #
    @property
    def in_worker(self) -> bool:
        return os.getpid() != self.owner_pid

    def adopt_process(self) -> None:
        """In a freshly forked worker, drop the copy of the parent's buffers."""
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self._stack = []
            self.take()

    def spill(self, shard_index: int) -> None:
        sims, spans, compiles = self.take()
        payload = {"sims": sims, "spans": spans, "compiles": compiles}
        path = self.spill_dir / f"worker-{self.pid}-shard{shard_index}.json"
        path.write_text(json.dumps(payload))

    def absorb_spills(self) -> None:
        """Merge and delete every worker spill file into this process's buffers."""
        for path in sorted(self.spill_dir.glob("worker-*.json")):
            payload = json.loads(path.read_text())
            self.sims.extend(tuple(sim) for sim in payload["sims"])
            self.spans.extend(payload["spans"])
            self.compiles += payload["compiles"]
            path.unlink()


# --------------------------------------------------------------------------- #
# Wrappers.  functools.wraps keeps __module__/__qualname__, so a wrapped
# module-level function (execute_shard) still pickles by reference.
# --------------------------------------------------------------------------- #


def _span_wrapper(recorder: Recorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(span)

    return wrapper


def _sim_wrapper(recorder: Recorder, fn: Callable, trace_stats: Callable) -> Callable:
    @functools.wraps(fn)
    def run(*args, **kwargs):
        before = trace_stats()
        span = recorder.open("sim.run")
        start = clock_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = clock_ns() - start
            recorder.close(span)
        after = trace_stats()
        if after["captures"] > before["captures"]:
            kind = "capture"
        elif after["hits"] > before["hits"]:
            kind = "replay"
        else:
            kind = "exec"
        recorder.sims.append((elapsed, int(result.cycles), kind))
        if span is not None:
            span[2] = f"sim.run.{kind}"
        return result

    return run


def _compile_wrapper(recorder: Recorder, fn: Callable, cache_size: Callable) -> Callable:
    @functools.wraps(fn)
    def compile_loop(*args, **kwargs):
        before = cache_size()
        span = recorder.open("codegen.compile_loop")
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(span)
            recorder.compiles += cache_size() - before

    return compile_loop


def _shard_wrapper(recorder: Recorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def execute_shard(shard, *args, **kwargs):
        recorder.adopt_process()
        span = recorder.open("campaign.shard")
        try:
            return fn(shard, *args, **kwargs)
        finally:
            recorder.close(span)
            if recorder.in_worker:
                recorder.spill(shard.index)

    return execute_shard


def _replace_everywhere(original: object, wrapped: object) -> None:
    """Rebind ``original`` to ``wrapped`` in every loaded ``repro`` module."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)


def _lookup(module_name: str, attr: str) -> Optional[object]:
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(module, attr, None)


def install(recorder: Recorder) -> None:
    """Wrap the probed public calls.  Call once per process, after
    ``import repro.cli``; a probe whose target no longer exists is listed in
    ``recorder.missing`` and its metrics read zero."""
    from repro.sim.trace import global_trace_cache

    system_cls = _lookup("repro.sim.system", "System")
    if system_cls is None:
        recorder.missing.append("repro.sim.system.System")
    else:
        system_cls.run = _sim_wrapper(recorder, system_cls.run, global_trace_cache().stats)

    execute_shard = _lookup("repro.campaign.runner", "execute_shard")
    if execute_shard is None:
        recorder.missing.append("repro.campaign.runner.execute_shard")
    else:
        _replace_everywhere(execute_shard, _shard_wrapper(recorder, execute_shard))

    if not recorder.traced:
        return

    compile_loop = _lookup("repro.sim.codegen", "compile_loop")
    cache_size = _lookup("repro.sim.codegen", "compile_cache_size")
    if compile_loop is None or cache_size is None:
        recorder.missing.append("repro.sim.codegen.compile_loop")
    else:
        _replace_everywhere(compile_loop, _compile_wrapper(recorder, compile_loop, cache_size))

    for module_name, attr, span_name in FUNCTION_SPANS:
        original = _lookup(module_name, attr)
        if original is None:
            recorder.missing.append(f"{module_name}.{attr}")
            continue
        _replace_everywhere(original, _span_wrapper(recorder, span_name, original))

    for module_name, class_name, method, span_name in METHOD_SPANS:
        cls = _lookup(module_name, class_name)
        if cls is None or method not in vars(cls):
            recorder.missing.append(f"{module_name}.{class_name}.{method}")
            continue
        setattr(cls, method, _span_wrapper(recorder, span_name, vars(cls)[method]))


# --------------------------------------------------------------------------- #
# Aggregation.
# --------------------------------------------------------------------------- #


def self_times(spans: Sequence[Span]) -> Tuple[Dict[str, float], Counter]:
    """Per span name: summed self time in seconds, and the call count."""
    covered: Dict[object, int] = defaultdict(int)
    for span_id, parent, _name, start, end in spans:
        if parent is not None:
            covered[parent] += end - start
    seconds: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for span_id, _parent, name, start, end in spans:
        seconds[name] += (end - start - covered[span_id]) / 1e9
        calls[name] += 1
    return seconds, calls


def layer_self_time(seconds: Dict[str, float], prefix: str) -> float:
    """Self time of every span named ``prefix`` or ``prefix.*``."""
    return sum(
        value for name, value in seconds.items()
        if name == prefix or name.startswith(prefix + ".")
    )
