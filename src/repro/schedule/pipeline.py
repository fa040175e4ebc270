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
The test suite's phase-DAG oracle (``tests/schedule/dag.py``) builds the
explicit DAG as a cross-check; this module is the fast evaluator used
inside the optimizer.

:func:`evaluate_pipeline` is the one copy of the recurrence: the
serial evaluator, the Gantt renderer, the fault replay and the batch
scorer's narrow chunks (:mod:`repro.opt.vectorized`) all call it.  It
runs once per scored candidate, so its loop keeps per-core state in
flat lists and compares floats inline instead of calling ``max``;
``tests/schedule/data/pipeline_corpus.json`` pins its outputs bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

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

    # Per-lane state in flat lists: ends[s] is the completion of
    # segment s (ends[0] the initialisation segment) and slot_end[s] of
    # the DMA op in slot s; a slot without an op keeps 0.0, the value a
    # dependency on it reads.
    mem_lanes = []
    exec_lanes = []
    for core in active:
        n = core.n_segments
        ends = [core.init_api_ns] + [0.0] * n
        slot_end = [0.0] * (n + 3)
        mem_lanes.append((n + 2, core.core, core.mem_slot_ns, ends,
                          slot_end))
        exec_lanes.append((n, core.core, core.exec_ns, core.dep_slot, ends,
                           slot_end))

    # ``b if b > a else a`` is ``max(a, b)``, ties keeping *a*, without
    # the builtin call.
    dma_clock = 0.0
    dma_busy = 0.0
    for slot in range(1, max(lane[0] for lane in mem_lanes) + 1):
        k = slot - 1
        gate_idx = slot - 2 if slot > 2 else 0
        # Round-robin DMA pass for this slot.
        for last, core_id, mem_ns, ends, slot_end in mem_lanes:
            if slot > last:
                continue
            length = mem_ns[k]
            if length <= 0.0:
                continue
            if injector is not None:
                length = injector.mem_ns(core_id, slot, length)
            gate = ends[gate_idx]
            start = gate if gate > dma_clock else dma_clock
            dma_clock = start + length
            dma_busy += length
            slot_end[slot] = dma_clock
            if timeline is not None:
                timeline.append(PipelineOp(
                    "mem", core_id, slot, start, dma_clock))
        # Execution phases for segment == slot.
        for n, core_id, exec_ns, dep_slot, ends, slot_end in exec_lanes:
            if slot > n:
                continue
            ready = ends[k]
            dep = dep_slot[k]
            if dep:
                done = slot_end[dep]
                if done > ready:
                    ready = done
            length = exec_ns[k]
            if injector is not None:
                length = injector.exec_ns(core_id, slot, length)
            end = ends[slot] = ready + length
            if timeline is not None:
                timeline.append(PipelineOp(
                    "exec", core_id, slot, ready, end))

    exec_finish = max(ends[n] for n, _, _, _, ends, _ in exec_lanes)
    # No DMA op is shorter than 0 (the planner emits positive lengths and
    # an injector scales them by a factor >= 0 or adds a stall >= 0), so
    # the clock never decreases and its final value is the last memory
    # phase's completion (0.0 with none).
    dma_finish = dma_clock
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
