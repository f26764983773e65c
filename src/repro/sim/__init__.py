"""Cycle-level multicore simulator substrate.

This subpackage implements the platform the paper experiments on: in-order
cores with private L1 caches, a shared arbitrated bus, a way-partitioned L2,
a memory controller with a banked DRAM model, per-core store buffers,
performance monitoring counters and a request-level trace.  Contention
points implement the :class:`repro.sim.resource.SharedResource` protocol —
including its event-port surface (cached ``horizon``, ``invalidate_horizon``,
``wake_targets``) — and compose into topologies (:mod:`repro.sim.topology`):
the paper's single bus, the bus chained into per-DRAM-bank arbitrated memory
queues, or the NGMP-style split request/response bus pair.

Arbitration policies, simulation engines and topologies are all
registry-backed (``register_arbiter`` / ``register_engine`` /
``register_topology``), so new ones plug in without editing the simulator
core.  Three engines ship built in: the stepped cycle-by-cycle oracle, the
generic event-driven fast path (:mod:`repro.sim.scheduler`), and the
``replay`` engine (:mod:`repro.sim.trace`), which captures each core's
demand-request trace once per kernel and streams it through the live
interconnect on every later run, falling back per core on trace-unsafe
programs.  Its inner loop is compiled by :mod:`repro.sim.codegen`,
specialised to the configured topology chain and arbiter set, with the
generic event scheduler as the fallback for anything the generator cannot
specialise.

The top-level entry point is :class:`repro.sim.system.System`.
"""

from .isa import Alu, Instruction, Load, Nop, Program, Store
from .arbiter import (
    ARBITER_REGISTRY,
    Arbiter,
    FifoArbiter,
    FixedPriorityArbiter,
    RoundRobinArbiter,
    TdmaArbiter,
    create_arbiter,
    make_arbiter,
    register_arbiter,
    registered_arbiters,
)
from .bus import Bus, BusRequest
from .cache import CacheStats, SetAssociativeCache
from .codegen import (
    CodegenMismatch,
    CompiledLoop,
    UnspecialisableError,
    compile_loop,
    generate_loop_source,
    loop_cache_key,
    specialisation_mismatch,
)
from .core import Core
from .dram import Dram
from .l2 import PartitionedL2
from .memctrl import BankQueuedMemoryController, MemoryController
from .pmc import PerformanceCounters
from .resource import NO_EVENT, EventPort, SharedResource, min_horizon
from .scheduler import (
    ENGINE_REGISTRY,
    EventScheduler,
    SteppedEngine,
    make_engine,
    register_engine,
    registered_engines,
)
from .store_buffer import StoreBuffer
from .system import System, SystemResult
from .topology import (
    TOPOLOGY_REGISTRY,
    ResourceChain,
    TopologyHooks,
    build_topology,
    register_topology,
    registered_topologies,
)
from .trace import (
    CaptureProbe,
    CoreTrace,
    NopFamily,
    NopMember,
    ReplayCore,
    ReplayEngine,
    RequestRecord,
    TraceCache,
    TraceRecorder,
    TraceStep,
    TraceUnsafe,
    clear_trace_cache,
    core_side_key,
    global_trace_cache,
    nop_member,
    replay_blocker,
    trace_key,
)

__all__ = [
    "ARBITER_REGISTRY",
    "Alu",
    "Arbiter",
    "BankQueuedMemoryController",
    "Bus",
    "BusRequest",
    "CacheStats",
    "CaptureProbe",
    "CodegenMismatch",
    "CompiledLoop",
    "Core",
    "CoreTrace",
    "Dram",
    "ENGINE_REGISTRY",
    "EventPort",
    "EventScheduler",
    "FifoArbiter",
    "FixedPriorityArbiter",
    "Instruction",
    "Load",
    "MemoryController",
    "NO_EVENT",
    "Nop",
    "NopFamily",
    "NopMember",
    "PartitionedL2",
    "PerformanceCounters",
    "Program",
    "ReplayCore",
    "ReplayEngine",
    "RequestRecord",
    "ResourceChain",
    "RoundRobinArbiter",
    "SetAssociativeCache",
    "SharedResource",
    "SteppedEngine",
    "Store",
    "StoreBuffer",
    "System",
    "SystemResult",
    "TOPOLOGY_REGISTRY",
    "TdmaArbiter",
    "TopologyHooks",
    "TraceCache",
    "TraceRecorder",
    "TraceStep",
    "TraceUnsafe",
    "UnspecialisableError",
    "build_topology",
    "clear_trace_cache",
    "compile_loop",
    "core_side_key",
    "create_arbiter",
    "generate_loop_source",
    "global_trace_cache",
    "loop_cache_key",
    "nop_member",
    "replay_blocker",
    "trace_key",
    "make_arbiter",
    "make_engine",
    "min_horizon",
    "register_arbiter",
    "register_engine",
    "register_topology",
    "registered_arbiters",
    "specialisation_mismatch",
    "registered_engines",
    "registered_topologies",
]
