"""Parallel experiment-campaign engine with JSON artifacts.

The paper's evaluation is built on *campaigns*: large sweeps of
isolation-versus-contended simulation runs over workloads, contender counts,
arbiters and seeds.  This package makes such sweeps declarative, parallel
and cached:

* :class:`CampaignSpec` / :class:`RunDescriptor` — declare the grid of runs
  (:mod:`repro.campaign.spec`);
* :func:`run_campaign` / :class:`ParallelRunner` / :func:`execute_shard` —
  execute descriptors as shards, in-process or over a process pool, with
  deterministic, order-independent results (:mod:`repro.campaign.runner`);
* :class:`ResultStore` — the content-addressed result store, so re-runs
  only simulate what changed, with a durable SQLite index and
  cross-campaign dedup (:mod:`repro.campaign.store`);
* :class:`CampaignStreamWriter` / :func:`load_campaign` — the
  ``results.jsonl`` / ``summary.json`` / ``campaign.json`` artifact layer
  (:mod:`repro.campaign.artifacts`).

The CLI front-end is ``repro-bounds campaign --jobs N --out DIR``; the
report renderer lives in :mod:`repro.report.campaign`.
"""

from .artifacts import (
    CampaignArtifacts,
    CampaignStreamWriter,
    MANIFEST_NAME,
    RESULTS_NAME,
    SUMMARY_NAME,
    build_manifest,
    load_campaign,
    load_manifest,
    load_results,
    load_summary,
    write_manifest,
)
from .runner import (
    CampaignOutcome,
    ParallelRunner,
    ShardRun,
    ShardTask,
    compact_shard,
    default_shard_size,
    execute_run,
    execute_shard,
    histogram_from_json,
    run_campaign,
    summarize_records,
    workload_run_from_record,
)
from .spec import (
    KIND_RSK,
    KIND_SYNTHETIC,
    SCHEMA_VERSION,
    CampaignSpec,
    RunDescriptor,
    campaign_digest,
    workload_campaign_descriptors,
)
from .store import (
    CLAIM_TTL_SECONDS,
    STORE_SCHEMA_VERSION,
    GcOutcome,
    ResultStore,
    StoreCounters,
    is_store_directory,
)

__all__ = [
    "CLAIM_TTL_SECONDS",
    "CampaignArtifacts",
    "CampaignOutcome",
    "CampaignSpec",
    "CampaignStreamWriter",
    "GcOutcome",
    "KIND_RSK",
    "KIND_SYNTHETIC",
    "MANIFEST_NAME",
    "ParallelRunner",
    "RESULTS_NAME",
    "ResultStore",
    "RunDescriptor",
    "SCHEMA_VERSION",
    "STORE_SCHEMA_VERSION",
    "SUMMARY_NAME",
    "ShardRun",
    "ShardTask",
    "StoreCounters",
    "build_manifest",
    "campaign_digest",
    "compact_shard",
    "default_shard_size",
    "execute_run",
    "execute_shard",
    "histogram_from_json",
    "is_store_directory",
    "load_campaign",
    "load_manifest",
    "load_results",
    "load_summary",
    "run_campaign",
    "summarize_records",
    "workload_campaign_descriptors",
    "workload_run_from_record",
    "write_manifest",
]
