#!/usr/bin/env python3
"""Walkthrough: run a campaign, then reload and re-render its JSON artifacts.

The campaign engine (``repro.campaign``) persists every campaign as two
files — ``results.jsonl`` (one record per run) and ``summary.json`` (the
aggregated view; schema in DESIGN.md, "Campaign artifact schema").  This
example shows the full round trip:

1. declare a small campaign grid with :class:`~repro.campaign.CampaignSpec`;
2. execute it with :class:`~repro.campaign.ParallelRunner` through a
   content-addressed :class:`~repro.campaign.ResultStore`, streaming the
   artifacts through a :class:`~repro.campaign.CampaignStreamWriter`;
3. *forget everything* and reload the artifacts from disk;
4. re-render the report and recompute the summary from the raw records,
   without a single new simulation.

Run it with::

    python examples/campaign_artifacts.py [output-dir]

Run it twice: the second invocation's campaign is served entirely from the
store (``0 simulated``).
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.campaign import (
    CampaignSpec,
    CampaignStreamWriter,
    ParallelRunner,
    ResultStore,
    load_campaign,
    summarize_records,
)
from repro.report.campaign import render_campaign_summary


def main() -> None:
    out_dir = Path(sys.argv[1] if len(sys.argv) > 1 else "out/example-campaign")

    # 1. Declare the grid: one preset, two arbiters, four random workloads
    #    each plus the rsk reference run -> 2 * (4 + 1) = 10 runs.
    spec = CampaignSpec(
        presets=("small",),
        arbiters=("round_robin", "tdma"),
        num_workloads=4,
        iterations=10,
        rsk_iterations=50,
    )
    descriptors = spec.expand()
    print(f"Campaign grid: {len(descriptors)} runs "
          f"({spec.num_workloads} workloads + rsk reference, per arbiter)")

    # 2. Execute through a result store, streaming the artifacts as the
    #    runs resolve, then finalise them with the summary.
    stream = CampaignStreamWriter(out_dir)
    with ResultStore(out_dir / "cache", campaign_id="example") as store:
        outcome = ParallelRunner(jobs=2, cache=store).run(descriptors, stream=stream)
    stats = outcome.stats
    print(f"Executed: {stats['simulated']} simulated, "
          f"{stats['cached']} from cache, jobs={stats['jobs']}")
    artifacts = stream.finalize(outcome.summary())
    print(f"Artifacts: {artifacts.results_path}, {artifacts.summary_path}")
    print()

    # 3. Reload from disk, as a later analysis session would.
    records, summary = load_campaign(artifacts.directory)
    print(f"Reloaded {len(records)} records; "
          f"presets={summary['presets']}, arbiters={summary['arbiters']}")
    print()

    # 4a. Re-render the saved summary.
    print(render_campaign_summary(summary))
    print()

    # 4b. Or recompute the aggregation from the raw records — the summary
    #     (minus its timing section) is a pure function of results.jsonl.
    recomputed = summarize_records(records)
    stored = {key: value for key, value in summary.items() if key != "timing"}
    assert recomputed == stored, "summary.json must match its records"
    print("Recomputed summary from raw records: matches summary.json")

    # Records are plain dictionaries, so ad-hoc analysis is one loop away —
    # here, the paper's arbiter contrast: the Equation 1 bound holds under
    # round robin, while TDMA's worst case grows to a full TDMA round (the
    # summary reports analytical_ubd: null there, since Equation 1 only
    # covers round-robin and FIFO arbitration).
    for key in sorted(summary["per_platform"]):
        bucket = summary["per_platform"][key]
        rsk = bucket.get("rsk")
        if not rsk:
            continue
        ubd = bucket["analytical_ubd"]
        print(
            f"{bucket['preset']} under {bucket['arbiter']}: worst contention "
            f"delay {rsk['max_contention_delay']} cycles "
            f"(analytical ubd: {'n/a' if ubd is None else ubd})"
        )


if __name__ == "__main__":
    main()
