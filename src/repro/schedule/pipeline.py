"""Event-driven evaluation of the parallel streaming PREM schedule.

The paper encodes the schedule as a DAG of execution and memory phases and
takes the longest path (Section 4.2).  For the streaming structure at hand
— per-core segment chains plus a single DMA serving cores round-robin —
the longest path equals the completion time of an event-driven simulation
of the recurrences:

    M(i, s) = max(DMA-previous-op end, E(i, s-2)) + mem(i, s)
    E(i, s) = max(E(i, s-1), M(i, dep_slot(i, s))) + exec(i, s)

where ``M`` are DMA (memory-phase) completions in round-robin order
(slot-major, then core), ``E(i, 0)`` is the initialisation segment, and
``dep_slot`` points at the slot whose transfers segment ``s`` needs.
:mod:`repro.schedule.dag` builds the explicit DAG for inspection and as a
cross-check; this module is the fast evaluator used inside the optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..prem.segments import CoreSchedule


@dataclass(frozen=True)
class PipelineResult:
    """Timing of one component execution."""

    makespan_ns: float
    exec_finish_ns: float      # last execution phase completion
    dma_finish_ns: float       # last memory phase completion
    dma_busy_ns: float         # total DMA occupancy
    exec_busy_ns: float        # total core occupancy (max over cores)


@dataclass(frozen=True)
class PipelineOp:
    """One scheduled operation of the evaluated pipeline timeline."""

    kind: str           # "mem" (DMA op in a slot), "exec" (segment) or
                        # "init" (initialisation segment, Gantt only)
    core: int
    index: int          # slot number (mem) or segment number (exec)
    start_ns: float
    end_ns: float

    @property
    def length_ns(self) -> float:
        return self.end_ns - self.start_ns


def static_timeline(cores: Sequence[CoreSchedule]) -> List[PipelineOp]:
    """Every operation's unfaulted static placement, in issue order.

    This is the schedule a real PREM deployment launches phases by; the
    timing invariant checker replays faulted durations against it.
    """
    timeline: List[PipelineOp] = []
    evaluate_pipeline(cores, timeline=timeline)
    return timeline


def evaluate_pipeline(cores: Sequence[CoreSchedule],
                      injector=None,
                      timeline: Optional[List[PipelineOp]] = None
                      ) -> PipelineResult:
    """Makespan of one component execution over the given core schedules.

    *injector* (duck-typed, see :class:`repro.faults.FaultInjector`) may
    stretch individual DMA ops (``mem_ns``) and execution phases
    (``exec_ns``); *timeline* collects every operation's placement.  Both
    default to ``None``, leaving the hot path untouched.
    """
    active = [core for core in cores if core.n_segments > 0]
    if not active:
        return PipelineResult(0.0, 0.0, 0.0, 0.0, 0.0)

    exec_end: Dict[int, List[float]] = {}
    slot_end: Dict[int, Dict[int, float]] = {}
    for core in active:
        # exec_end[core][0] is the initialisation segment.
        exec_end[core.core] = [core.init_api_ns]
        slot_end[core.core] = {}

    dma_clock = 0.0
    dma_busy = 0.0
    max_slots = max(core.n_segments + 2 for core in active)

    for slot in range(1, max_slots + 1):
        # Round-robin DMA pass for this slot.
        for core in active:
            if slot > core.n_segments + 2:
                continue
            length = core.mem_slot_ns[slot - 1]
            if length <= 0.0:
                continue
            if injector is not None:
                length = injector.mem_ns(core.core, slot, length)
            ends = exec_end[core.core]
            gate_idx = min(max(slot - 2, 0), len(ends) - 1)
            start = max(dma_clock, ends[gate_idx])
            dma_clock = start + length
            dma_busy += length
            slot_end[core.core][slot] = dma_clock
            if timeline is not None:
                timeline.append(PipelineOp(
                    "mem", core.core, slot, start, dma_clock))
        # Execution phases for segment == slot.
        for core in active:
            if slot > core.n_segments:
                continue
            ends = exec_end[core.core]
            ready = ends[-1]
            dep = core.dep_slot[slot - 1]
            if dep:
                ready = max(ready, slot_end[core.core].get(dep, 0.0))
            length = core.exec_ns[slot - 1]
            if injector is not None:
                length = injector.exec_ns(core.core, slot, length)
            ends.append(ready + length)
            if timeline is not None:
                timeline.append(PipelineOp(
                    "exec", core.core, slot, ready, ends[-1]))

    exec_finish = max(exec_end[core.core][-1] for core in active)
    dma_finish = max(
        (max(slots.values()) for slots in slot_end.values() if slots),
        default=0.0)
    makespan = max(exec_finish, dma_finish)
    exec_busy = max(
        core.init_api_ns + core.exec_ns_total for core in active)
    return PipelineResult(
        makespan_ns=makespan,
        exec_finish_ns=exec_finish,
        dma_finish_ns=dma_finish,
        dma_busy_ns=dma_busy,
        exec_busy_ns=exec_busy,
    )
