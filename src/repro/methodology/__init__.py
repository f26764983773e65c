"""The measurement-based methodology (the paper's contribution).

* :mod:`repro.methodology.experiment` — running a software component under
  analysis (scua) in isolation and against contender kernels, and measuring
  execution-time differences.
* :mod:`repro.methodology.ubd` — the rsk-nop methodology of Section 4 (sweep
  the nop count, measure ``dbus(t, k)``, detect the saw-tooth period and
  report ``ubdm`` together with its confidence checks) plus the
  resource-generic measured-bound pipeline that derives one measured
  ``ubdm`` term per shared resource of the configured topology and
  cross-checks each against its analytical envelope.
* :mod:`repro.methodology.naive` — the prior-art estimator (execution-time
  increase divided by the number of requests) that the paper shows to
  underestimate ``ubd``.
* :mod:`repro.methodology.etb` — using ``ubdm`` to pad execution-time bounds
  for MBTA, or as a per-access contention term for STA.
* :mod:`repro.methodology.composition` — per-resource worst-case delay terms
  for multi-resource topologies; they sum to the end-to-end bound and pad
  execution times resource by resource.
* :mod:`repro.methodology.workloads` — randomly composed multiprogrammed
  workloads (the Figure 6(a) campaign).
"""

from .experiment import (
    ContendedMeasurement,
    ExperimentRunner,
    IsolationMeasurement,
)
from .ubd import (
    MeasuredBoundPipeline,
    MeasuredBoundReport,
    ResourceUbdm,
    UbdEstimator,
    UbdMethodologyResult,
)
from .naive import NaiveEstimate, NaiveUbdEstimator
from .etb import EtbReport, compute_etb, mbta_padding
from .composition import (
    ComposedEtbReport,
    compose_etb,
    compose_etb_for_config,
    end_to_end_bound,
    per_resource_bounds,
)
from .mbta import TaskAnalysis, TaskSetAnalysis, TaskSetResult
from .workloads import (
    WorkloadCampaignResult,
    WorkloadRun,
    random_workloads,
    run_rsk_reference_workload,
    run_workload_campaign,
)

__all__ = [
    "ComposedEtbReport",
    "ContendedMeasurement",
    "EtbReport",
    "ExperimentRunner",
    "IsolationMeasurement",
    "MeasuredBoundPipeline",
    "MeasuredBoundReport",
    "NaiveEstimate",
    "NaiveUbdEstimator",
    "ResourceUbdm",
    "TaskAnalysis",
    "TaskSetAnalysis",
    "TaskSetResult",
    "UbdEstimator",
    "UbdMethodologyResult",
    "WorkloadCampaignResult",
    "WorkloadRun",
    "compose_etb",
    "compose_etb_for_config",
    "compute_etb",
    "end_to_end_bound",
    "mbta_padding",
    "per_resource_bounds",
    "random_workloads",
    "run_rsk_reference_workload",
    "run_workload_campaign",
]
