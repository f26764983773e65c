"""The benchmark's workloads: set-up, one leg of the timed phase, and the
correctness check of each leg's outputs.

A workload object lives in one pass process.  ``prepare`` is the set-up a
user pays before the command does its work; ``leg`` runs the command once
and returns a :class:`Leg`: the problems its outputs show (empty when
correct), the exact simulated outputs that must repeat across passes, the
number of user-level runs it completed, and layer counters that only the
program's own outputs reveal (the campaign's store counters).  Leg 0 is
cold; legs 1.. are warm repetitions in the same process.

Only public entry points are called: ``repro.cli.main``, ``CampaignSpec``,
``ParallelRunner``, ``ResultStore`` and ``CampaignStreamWriter``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional


@dataclass
class Leg:
    problems: List[str]
    outputs: object
    runs: Optional[int] = None
    counters: Dict[str, float] = field(default_factory=dict)


def _cli(argv: List[str]):
    """Run ``repro.cli.main(argv)`` with its standard output captured."""
    from repro.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


class DeriveLoad:
    """``--preset split_bus --engine replay derive-ubd --per-resource``: the
    bus rsk-nop saw-tooth plus the per-resource stress terms, composed into
    an end-to-end measured bound (``--show-sweep`` adds the dbus series to
    the checked output).  The warm leg re-derives in the same process, with
    the trace and generated-loop caches filled by the cold leg."""

    name = "derive-load"
    warm_legs = 1
    argv = [
        "--preset", "split_bus", "--engine", "replay",
        "derive-ubd", "--per-resource", "--show-sweep",
    ]
    #: The bus term the paper's methodology must measure on this platform.
    expected_bus_ubdm = 27

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed

    def prepare(self) -> None:
        from repro.config import get_preset

        get_preset("split_bus", engine="replay")

    def leg(self, index: int) -> Leg:
        code, text = _cli(self.argv)
        return Leg(problems=self.check(code, text), outputs=text)

    def check(self, code: int, text: str) -> List[str]:
        problems = []
        if code != 0:
            problems.append(f"derive-ubd exited with {code}")
        rows = re.findall(
            r"^(\w+)\s*\|\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\d+)\s*\|[^|]*\|\s*(\S+)\s*$",
            text,
            re.MULTILINE,
        )
        terms = {name: (int(ubdm), status) for name, _obs, ubdm, _ana, status in rows}
        if not terms:
            return problems + ["no per-resource term table in the output"]
        bus = terms.get("bus", (None, None))[0]
        if bus != self.expected_bus_ubdm:
            problems.append(f"bus ubdm {bus}, expected {self.expected_bus_ubdm}")
        failing = [name for name, (_ubdm, status) in terms.items() if status != "OK"]
        if failing:
            problems.append(f"sandwich check fails for {failing}")
        match = re.search(
            r"End-to-end measured bound: (\d+) cycles .*saw-tooth alone gives (\d+)\)", text
        )
        if match is None:
            problems.append("no end-to-end measured bound in the output")
        else:
            composed = sum(ubdm for ubdm, _status in terms.values())
            if int(match.group(1)) != composed:
                problems.append(
                    f"end-to-end bound {match.group(1)} != sum of the reported terms {composed}"
                )
            if int(match.group(2)) != bus:
                problems.append("saw-tooth ubdm differs from the bus term")
        return problems


class Campaign:
    """A cold campaign on ``ref`` with the event engine at ``jobs=2``:
    synthetic workloads x {round_robin, fifo} x {bus_only, bus_bank_queues},
    plus the rsk references, into a fresh store and output directory.  Warm
    legs resubmit the same spec against that store, each into a fresh output
    directory.

    Each leg does what ``repro-bounds campaign --store S --out O`` does
    (expand the spec, open the store, ``ParallelRunner.run`` with a stream
    writer, finalize the artifacts), with one change to the grid: the
    observed task of the synthetic workloads cycles through the synthetic
    suite, each kernel twice per grid point, while the seed draws the
    contenders and the kernels' address streams.  With the CLI's fully random
    draw the simulated work of a cold leg varies by about 10% from seed to
    seed; with the observed task fixed it varies by about 1%.
    """

    name = "campaign"
    warm_legs = 5
    jobs = 2
    #: Synthetic workloads per grid point: every kernel of the suite observed twice.
    observed_rounds = 2

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.store = self.work_dir / "store"
        self.cold: Optional[Dict[str, object]] = None

    def prepare(self) -> None:
        from repro.campaign import CampaignSpec, ResultStore
        from repro.kernels.synthetic import synthetic_kernel_names

        self.suite = synthetic_kernel_names()
        self.spec = CampaignSpec(
            presets=("ref",),
            arbiters=("round_robin", "fifo"),
            topologies=("bus_only", "bus_bank_queues"),
            seeds=(self.seed,),
            num_workloads=self.observed_rounds * len(self.suite),
            iterations=25,
            rsk_iterations=125,
            engine="event",
        )
        ResultStore(self.store, campaign_id="perfbench-setup").close()

    def descriptors(self):
        from repro.campaign import KIND_SYNTHETIC

        descriptors = []
        observed = 0
        for descriptor in self.spec.expand():
            if descriptor.kind == KIND_SYNTHETIC:
                task = self.suite[observed % len(self.suite)]
                descriptor = dataclasses.replace(
                    descriptor, tasks=(task,) + descriptor.tasks[1:]
                )
                observed += 1
            descriptors.append(descriptor)
        return descriptors

    def leg(self, index: int) -> Leg:
        from repro.campaign import (
            CampaignStreamWriter,
            ParallelRunner,
            ResultStore,
            campaign_digest,
        )

        out = self.work_dir / f"out{index}"
        descriptors = self.descriptors()
        campaign_id = campaign_digest([descriptor.digest() for descriptor in descriptors])
        with ResultStore(self.store, campaign_id=campaign_id) as store:
            stream = CampaignStreamWriter(out)
            outcome = ParallelRunner(jobs=self.jobs, cache=store).run(descriptors, stream=stream)
            stream.finalize(outcome.summary())
        results = (out / "results.jsonl").read_bytes()
        summary = json.loads((out / "summary.json").read_text())
        timing = summary.pop("timing")
        store_counters = timing.get("store", {})
        leg = Leg(problems=[], outputs=[results.decode(), summary], runs=int(timing["runs"]))
        if index == 0:
            self.cold = {"results": results, "summary": summary}
            leg.problems = self.check_cold(results, timing)
            leg.counters = {
                "campaign.shards": timing["shards"],
                "store.artifact_writes": store_counters.get("artifact_writes", 0),
            }
        else:
            leg.problems = self.check_warm(results, summary, timing)
            leg.counters = {
                "store.index_queries": store_counters.get("index_queries", 0),
                "store.artifact_reads": store_counters.get("artifact_reads", 0),
                "store.hit_ratio": timing["cached"] / max(1, timing["unique_runs"]),
            }
        return leg

    def check_cold(self, results: bytes, timing: Dict[str, object]) -> List[str]:
        from repro.campaign import KIND_RSK
        from repro.config import config_from_dict

        problems = []
        records = [json.loads(line) for line in results.decode().splitlines()]
        if len(records) != timing["runs"] or timing["simulated"] != timing["unique_runs"]:
            problems.append("cold leg did not simulate every run")
        references = [record for record in records if record["kind"] == KIND_RSK]
        if not references:
            problems.append("no rsk reference run")
        for record in references:
            ubd = config_from_dict(record["config"]).ubd
            worst = record["metrics"].get("max_contention_delay")
            if worst is None or worst > ubd:
                problems.append(
                    f"{record['run_id']}: rsk max contention delay {worst} exceeds ubd {ubd}"
                )
        return problems

    def check_warm(
        self, results: bytes, summary: Dict[str, object], timing: Dict[str, object]
    ) -> List[str]:
        problems = []
        if self.cold is None:
            return ["warm leg without a cold leg"]
        if timing["simulated"] != 0:
            problems.append(f"warm leg simulated {timing['simulated']} runs")
        if results != self.cold["results"]:
            problems.append("warm results.jsonl differs from the cold leg")
        if summary != self.cold["summary"]:
            problems.append("warm summary.json (minus timing) differs from the cold leg")
        return problems


WORKLOADS = {workload.name: workload for workload in (DeriveLoad, Campaign)}
