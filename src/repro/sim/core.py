"""In-order core model.

Each core executes one :class:`repro.sim.isa.Program`.  The pipeline is the
minimal model that captures the timing effects the paper relies on:

* instruction fetch is pipelined, so an IL1 hit adds no visible latency; an
  IL1 miss stalls the core and fetches the line over the shared bus;
* ``nop`` and ``alu`` instructions occupy the core for their latency;
* a load occupies the core for the DL1 hit latency, then either completes
  (DL1 hit or store-buffer forward) or posts a bus request and stalls until
  the data returns — consequently the *injection time* between two
  back-to-back loads that miss equals the DL1 latency (1 cycle on ``ref``,
  4 on ``var``), exactly as assumed in Sections 3 and 5 of the paper;
* a store occupies the core for the DL1 latency and then retires into the
  store buffer; the core only stalls when the buffer is full.  Buffered
  stores drain over the bus in the background.

The core never talks to the bus directly: it calls the ``issue_request``
callback installed by :class:`repro.sim.system.System`, which owns the L2 /
memory-controller side of every transaction.
"""

from __future__ import annotations

import enum
from typing import Callable, Iterator, Optional, Tuple

from ..config import ArchConfig
from ..errors import SimulationError
from .cache import SetAssociativeCache
from .isa import Alu, Instruction, Load, Nop, Program, Store
from .pmc import PerformanceCounters
from .resource import NO_EVENT
from .store_buffer import StoreBuffer

#: Callback used by the core to start a bus transaction:
#: ``issue_request(core_id, kind, addr, ready_cycle)``.
IssueCallback = Callable[[int, str, int, int], None]


class CoreState(enum.Enum):
    """Execution state of a core."""

    READY = "ready"
    EXECUTING = "executing"
    WAIT_IFETCH = "wait_ifetch"
    WAIT_LOAD = "wait_load"
    STALL_STORE_BUFFER = "stall_store_buffer"
    DONE = "done"


class _Phase(enum.Enum):
    """What the current occupancy of the execute stage represents."""

    SIMPLE = "simple"
    DL1_LOAD = "dl1_load"
    DL1_STORE = "dl1_store"


class Core:
    """One in-order core with private IL1/DL1 caches and a store buffer.

    Args:
        core_id: index of the core (also its bus port).
        config: platform configuration.
        program: the program to execute, or ``None`` for an idle core.
        issue_request: callback installed by the system to start bus
            transactions on behalf of this core.
        pmc: shared performance counter block.
    """

    def __init__(
        self,
        core_id: int,
        config: ArchConfig,
        program: Optional[Program],
        issue_request: IssueCallback,
        pmc: Optional[PerformanceCounters] = None,
    ) -> None:
        self.core_id = core_id
        self.config = config
        self.program = program
        self.issue_request = issue_request
        self.pmc = pmc
        self.il1 = SetAssociativeCache(config.il1, name=f"il1[{core_id}]")
        self.dl1 = SetAssociativeCache(config.dl1, name=f"dl1[{core_id}]")
        self.store_buffer = StoreBuffer(config.store_buffer, core_id=core_id)

        self._stream: Optional[Iterator[Tuple[int, Instruction]]] = (
            program.instruction_stream() if program is not None else None
        )
        self.state = CoreState.DONE if program is None else CoreState.READY
        self._phase = _Phase.SIMPLE
        self._busy_until = 0
        self._current_pc = 0
        self._current_instr: Optional[Instruction] = None
        #: set when an IL1 miss returns and the instruction must start executing
        self._fetched_pending = False
        self._stall_store_addr = 0
        self._stall_entry_cycle = 0

        self.instructions_retired = 0
        self.done_cycle: Optional[int] = None
        self.stall_cycles = 0

    # ------------------------------------------------------------------ #
    # Public queries.
    # ------------------------------------------------------------------ #
    @property
    def is_done(self) -> bool:
        """True when the program has fully retired."""
        return self.state is CoreState.DONE

    @property
    def is_waiting_on_bus(self) -> bool:
        """True while the core is stalled waiting for a bus transaction."""
        return self.state in (CoreState.WAIT_IFETCH, CoreState.WAIT_LOAD)

    def next_event_cycle(self, cycle: int) -> int:
        """Earliest future cycle at which this core will do work on its own.

        This is the core's horizon contribution to the event-driven scheduler
        (see :mod:`repro.sim.scheduler`): an executing core's next event is
        the end of its occupancy; a ready core acts on the very next visited
        cycle.  Cores stalled on the bus or on the store buffer are woken by
        bus completions, which the scheduler already includes through the bus
        and memory-controller horizons, so they report "no self-driven
        activity" (:data:`~repro.sim.resource.NO_EVENT`).
        """
        if self.state is CoreState.EXECUTING:
            return max(self._busy_until, cycle + 1)
        if self.state is CoreState.READY:
            return cycle
        return NO_EVENT

    def needs_tick(self, cycle: int) -> bool:
        """True when :meth:`tick` would change state at ``cycle``.

        The event engine uses this to skip the per-cycle tick of cores that
        provably cannot act: a core waiting on the bus (or done) with no
        drainable store does nothing in :meth:`tick`, so skipping the call is
        observationally equivalent.  Must be evaluated *after* the cycle's
        delivery phases — a bus completion may have just made the core ready
        or exposed a new store-buffer head.
        """
        state = self.state
        if state is CoreState.READY or state is CoreState.STALL_STORE_BUFFER:
            return True
        if state is CoreState.EXECUTING and cycle >= self._busy_until:
            return True
        # Equivalent to store_buffer.head_ready_to_issue() is not None, open-
        # coded because this predicate runs for every core on every visited
        # cycle of the event engine.
        store_buffer = self.store_buffer
        return bool(store_buffer._entries) and not store_buffer._head_in_flight

    # ------------------------------------------------------------------ #
    # Per-cycle execution.
    # ------------------------------------------------------------------ #
    def tick(self, cycle: int) -> None:
        """Advance the core by one cycle (phase 2 of the system loop)."""
        if self.state is CoreState.DONE or self.is_waiting_on_bus:
            # Buffered stores keep draining while the core waits or is done.
            self._drain_store_buffer(cycle)
            return

        if self.state is CoreState.STALL_STORE_BUFFER:
            if self.store_buffer.try_push(self._stall_store_addr, cycle):
                self.stall_cycles += cycle - self._stall_entry_cycle
                if self.pmc is not None:
                    self.pmc.core[self.core_id].store_buffer_full_stalls += (
                        cycle - self._stall_entry_cycle
                    )
                self._retire(cycle)
            else:
                self._drain_store_buffer(cycle)
                return

        if self.state is CoreState.EXECUTING:
            if cycle < self._busy_until:
                self._drain_store_buffer(cycle)
                return
            self._finish_execute_phase(cycle)

        if self.state is CoreState.READY:
            self._start_next_instruction(cycle)

        self._drain_store_buffer(cycle)

    # ------------------------------------------------------------------ #
    # Bus-response entry points (phase 1 callbacks, via the system).
    # ------------------------------------------------------------------ #
    def on_instruction_line(self, addr: int, cycle: int) -> None:
        """An IL1 miss completed; the fetched instruction may now execute."""
        if self.state is not CoreState.WAIT_IFETCH:
            raise SimulationError(
                f"core {self.core_id}: unexpected instruction line at cycle {cycle}"
            )
        self.il1.fill(addr)
        instr = self._current_instr
        if instr is None:
            raise SimulationError(f"core {self.core_id}: ifetch completed with no instruction")
        self.state = CoreState.READY
        self._fetched_pending = True

    def on_data_line(self, addr: int, cycle: int) -> None:
        """A demand load completed; fill the DL1 and retire the load."""
        if self.state is not CoreState.WAIT_LOAD:
            raise SimulationError(f"core {self.core_id}: unexpected data line at cycle {cycle}")
        self.dl1.fill(addr)
        self._retire(cycle)

    def on_store_drained(self, cycle: int) -> None:
        """The store buffer's head finished its bus transaction."""
        self.store_buffer.complete_head(cycle)

    # ------------------------------------------------------------------ #
    # Internal pipeline steps.
    # ------------------------------------------------------------------ #
    def _start_next_instruction(self, cycle: int) -> None:
        if self._fetched_pending:
            # The instruction was already fetched (IL1 miss path); execute it.
            self._fetched_pending = False
            self._begin_execute(cycle, self._current_instr)
            return
        assert self._stream is not None
        try:
            pc, instr = next(self._stream)
        except StopIteration:
            self.state = CoreState.DONE
            self.done_cycle = cycle
            return
        self._current_pc = pc
        self._current_instr = instr
        if self.il1.lookup(pc):
            self._begin_execute(cycle, instr)
        else:
            line = self.il1.line_address(pc)
            self.state = CoreState.WAIT_IFETCH
            self.issue_request(self.core_id, "ifetch", line, cycle)

    def _begin_execute(self, cycle: int, instr: Optional[Instruction]) -> None:
        if instr is None:
            raise SimulationError(f"core {self.core_id}: begin_execute without instruction")
        if isinstance(instr, Nop):
            self._phase = _Phase.SIMPLE
            self._busy_until = cycle + self.config.nop_latency
        elif isinstance(instr, Alu):
            self._phase = _Phase.SIMPLE
            self._busy_until = cycle + instr.latency
        elif isinstance(instr, Load):
            self._phase = _Phase.DL1_LOAD
            self._busy_until = cycle + self.config.dl1.hit_latency
        elif isinstance(instr, Store):
            self._phase = _Phase.DL1_STORE
            self._busy_until = cycle + self.config.dl1.hit_latency
        else:  # pragma: no cover - new instruction kinds must be added here
            raise SimulationError(f"core {self.core_id}: unknown instruction {instr!r}")
        self.state = CoreState.EXECUTING

    def _finish_execute_phase(self, cycle: int) -> None:
        instr = self._current_instr
        if self._phase is _Phase.SIMPLE:
            self._retire(cycle)
            return
        if self._phase is _Phase.DL1_LOAD:
            assert isinstance(instr, Load)
            forwarded = self.store_buffer.forwards(instr.addr, self.config.line_size)
            hit = self.dl1.lookup(instr.addr)
            if hit or forwarded:
                self._retire(cycle)
                return
            line = self.dl1.line_address(instr.addr)
            self.state = CoreState.WAIT_LOAD
            self.issue_request(self.core_id, "load", line, cycle)
            return
        if self._phase is _Phase.DL1_STORE:
            assert isinstance(instr, Store)
            # Write-through, no write-allocate: update the line if present.
            self.dl1.lookup(instr.addr, is_write=True)
            line = self.dl1.line_address(instr.addr)
            if self.store_buffer.try_push(line, cycle):
                self._retire(cycle)
            else:
                self.state = CoreState.STALL_STORE_BUFFER
                self._stall_store_addr = line
                self._stall_entry_cycle = cycle
            return
        raise SimulationError(f"core {self.core_id}: unknown phase {self._phase}")

    def _retire(self, cycle: int) -> None:
        instr = self._current_instr
        if instr is None:
            raise SimulationError(f"core {self.core_id}: retire without instruction")
        self.instructions_retired += 1
        if self.pmc is not None:
            self.pmc.note_instruction(self.core_id, instr.mnemonic)
        self._current_instr = None
        self.state = CoreState.READY
        del cycle

    def _drain_store_buffer(self, cycle: int) -> None:
        """Post the store buffer's head entry on the bus if it is eligible."""
        entry = self.store_buffer.head_ready_to_issue()
        if entry is None:
            return
        self.store_buffer.mark_head_issued()
        self.issue_request(self.core_id, "store", entry.addr, cycle)
