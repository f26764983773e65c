"""Shared infrastructure for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper.  The
regenerated series/rows are printed to stdout and also written as plain-text
artefacts under ``benchmarks/out/`` so they can be inspected.  In quick mode
(``REPRO_BENCH_QUICK=1``, as CI runs them) every artefact must also equal
its committed golden under ``benchmarks/goldens/``; ``pytest benchmarks
--regen`` rewrites the goldens instead.  Regenerate them without
``REPRO_BENCH_CACHE=1`` (or from an empty ``benchmarks/out/.cache``): a
warm store serves the figures without simulating them.  Full-size runs are
not compared.

All simulation-based benchmarks run the workload exactly once through
``benchmark.pedantic(..., rounds=1, iterations=1)``: the interesting output is
the regenerated figure, and a single cycle-accurate run is already
deterministic, so repeating it would only multiply the runtime.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

# Make the package importable when the benchmarks are run without an
# installed distribution (mirrors the pythonpath setting used for tests/).
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

#: Directory where regenerated figures are written.
OUTPUT_DIR = Path(__file__).resolve().parent / "out"

#: Committed quick-mode figures that :func:`write_artifact` compares against.
GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"


@dataclass(frozen=True)
class ArtifactDir:
    """Where regenerated figures are written, and how they are checked.

    Attributes:
        path: the output directory.
        goldens: compare each figure with its golden (quick mode only).
        regen: rewrite the goldens instead of comparing (``--regen``).
    """

    path: Path
    goldens: bool
    regen: bool


@pytest.fixture(scope="session")
def artifact_dir(quick_mode: bool, regen: bool) -> ArtifactDir:
    """Directory for regenerated-figure artefacts (created on demand)."""
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    return ArtifactDir(OUTPUT_DIR, goldens=quick_mode, regen=regen)


@pytest.fixture(scope="session")
def campaign_runner():
    """Shared campaign runner for figure sweeps (see ``repro.campaign``).

    ``REPRO_BENCH_JOBS`` sets the worker-process count (default: one per
    CPU, capped at 4); serial and parallel execution produce bit-identical
    figures.  ``REPRO_BENCH_CACHE=1`` additionally persists per-run results
    under ``benchmarks/out/.cache`` so re-generating an unchanged figure
    skips its simulations.
    """
    from repro.campaign import ParallelRunner, ResultStore

    jobs = int(os.environ.get("REPRO_BENCH_JOBS", min(4, os.cpu_count() or 1)))
    store = None
    if os.environ.get("REPRO_BENCH_CACHE", "0") == "1":
        store = ResultStore(OUTPUT_DIR / ".cache", campaign_id="benchmarks")
    yield ParallelRunner(jobs=max(1, jobs), cache=store)
    if store is not None:
        store.close()


@pytest.fixture(scope="session")
def quick_mode() -> bool:
    """Reduce workload sizes when REPRO_BENCH_QUICK=1 is set.

    The default sizes regenerate the figures with the same qualitative shape
    as the paper in a couple of minutes; quick mode is for smoke-testing the
    harness itself.
    """
    return os.environ.get("REPRO_BENCH_QUICK", "0") == "1"


def write_artifact(directory: ArtifactDir, name: str, content: str) -> Path:
    """Write ``content`` to ``directory/name`` and echo it to stdout.

    In quick mode the content must equal ``benchmarks/goldens/name``, or
    replaces it under ``--regen``.
    """
    path = directory.path / name
    path.write_text(content, encoding="utf-8")
    print(f"\n----- {name} -----")
    print(content)
    if directory.goldens:
        golden = GOLDEN_DIR / name
        if directory.regen:
            GOLDEN_DIR.mkdir(exist_ok=True)
            golden.write_text(content, encoding="utf-8")
        else:
            assert golden.exists(), (
                f"no golden for {name}; create it with `REPRO_BENCH_QUICK=1 pytest "
                "benchmarks --regen`"
            )
            assert content == golden.read_text(encoding="utf-8"), (
                f"{name} differs from benchmarks/goldens/{name}; if the change is "
                "intended, refresh it with `REPRO_BENCH_QUICK=1 pytest benchmarks --regen`"
            )
    return path
