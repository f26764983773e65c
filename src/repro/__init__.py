"""repro — measurement-based contention bounds for real-time round-robin buses.

A from-scratch Python reproduction of

    G. Fernandez, J. Jalle, J. Abella, E. Quiñones, T. Vardanega,
    F. J. Cazorla, "Increasing Confidence on Measurement-Based Contention
    Bounds for Real-Time Round-Robin Buses", DAC 2015.

The package contains three layers:

* :mod:`repro.sim` — a cycle-level NGMP-like multicore simulator (cores,
  private L1 caches, a shared round-robin bus, a way-partitioned L2, a memory
  controller with a banked DRAM model, store buffers, PMCs and a request
  trace);
* :mod:`repro.kernels` — the resource-stressing kernels (rsk, rsk-nop, the
  nop-only kernel) and a synthetic EEMBC-Autobench substitute;
* :mod:`repro.analysis` and :mod:`repro.methodology` — the paper's analytical
  model (Equations 1-3), the saw-tooth period detection and the full
  measurement-based methodology that derives ``ubd`` without knowing any bus
  timing parameter, plus the naive prior-art estimator and the ETB padding
  that consumes the bound.

Quickstart::

    from repro import reference_config, UbdEstimator

    result = UbdEstimator(reference_config(), k_max=60, iterations=60).run()
    print(result.summary())      # ubdm = 27 cycles on the reference platform
"""

from .config import (
    ArchConfig,
    BusConfig,
    CacheConfig,
    DramConfig,
    L2Config,
    StoreBufferConfig,
    get_preset,
    reference_config,
    small_config,
    variant_config,
)
from .errors import (
    AnalysisError,
    ConfigurationError,
    MethodologyError,
    ProgramError,
    ReproError,
    SimulationError,
)
from .analysis import (
    ContentionModel,
    SawtoothAnalyzer,
    assess_confidence,
    contender_histogram,
    contention_histogram,
    derive_delta_nop,
    gamma_of_delta,
    sawtooth_curve,
    ubd_analytical,
)
from .kernels import (
    build_nop_kernel,
    build_rsk,
    build_rsk_nop,
    build_synthetic_kernel,
    synthetic_kernel_names,
)
from .methodology import (
    ExperimentRunner,
    NaiveUbdEstimator,
    UbdEstimator,
    compute_etb,
    mbta_padding,
    run_rsk_reference_workload,
    run_workload_campaign,
)
from .sim import Program, System

__version__ = "1.0.0"

__all__ = [
    "AnalysisError",
    "ArchConfig",
    "BusConfig",
    "CacheConfig",
    "ConfigurationError",
    "ContentionModel",
    "DramConfig",
    "ExperimentRunner",
    "L2Config",
    "MethodologyError",
    "NaiveUbdEstimator",
    "Program",
    "ProgramError",
    "ReproError",
    "SawtoothAnalyzer",
    "SimulationError",
    "StoreBufferConfig",
    "System",
    "UbdEstimator",
    "__version__",
    "assess_confidence",
    "build_nop_kernel",
    "build_rsk",
    "build_rsk_nop",
    "build_synthetic_kernel",
    "compute_etb",
    "contender_histogram",
    "contention_histogram",
    "derive_delta_nop",
    "gamma_of_delta",
    "get_preset",
    "mbta_padding",
    "reference_config",
    "run_rsk_reference_workload",
    "run_workload_campaign",
    "sawtooth_curve",
    "small_config",
    "synthetic_kernel_names",
    "ubd_analytical",
    "variant_config",
]
