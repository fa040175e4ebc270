"""Dynamic PREM-compliance auditing of VM traces and timing replays.

Static plan safety is proved by :mod:`repro.analysis` before anything
runs; this module covers the two *dynamic* surfaces the static verifier
cannot see:

- the *VM trace* (``check_trace``): the DMA ops a run actually
  performed, diffed against the planned swap schedules — dropped,
  delayed, duplicated transfers and stale or poisoned execution-phase
  bindings surface as diagnostics;
- the *timing pipeline* (``check_timing``): faulted operation durations
  replayed against the static schedule — a stalled DMA op or an
  overrunning execution phase that would cross a dependent operation's
  static start time is a correctness violation on a real PREM machine,
  where phases launch by the precomputed schedule, not by handshakes.

Every finding is a :class:`repro.analysis.Diagnostic` with a stable
``PREM4xx`` code, the same framework the static passes report through,
so campaign scoring and rendering are uniform across both worlds.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from ..analysis import Diagnostic
from ..analysis.model import UNLOAD, ArraySwapModel
from ..errors import InvariantViolationError
from ..loopir.component import TilableComponent
from ..opt.solution import Solution
from ..prem.macros import MacroBuilder
from ..prem.runtime import VmTrace
from ..prem.segments import CoreSchedule
from ..schedule.pipeline import PipelineOp, static_timeline

#: Slack (ns) before a timing overlap counts as a violation.
TIMING_EPS_NS = 1e-6


class PremInvariantChecker:
    """Audits PREM executions for compliance violations.

    Static plan invariants (slot arithmetic, double-buffer windows,
    schedule shape) live in :class:`repro.analysis.StaticVerifier`; the
    checker only judges what a concrete run *did*.
    """

    # -- VM trace --------------------------------------------------------

    def check_trace(self, component: TilableComponent, solution: Solution,
                    builder: MacroBuilder,
                    trace: VmTrace) -> List[Diagnostic]:
        """Diff what a VM run did against what the plan prescribed."""
        diagnostics: List[Diagnostic] = []
        for core in range(solution.threads):
            diagnostics.extend(
                self._check_core_trace(builder, core, trace))
        diagnostics.extend(self._check_poison(trace))
        return diagnostics

    def _planned_ops(self, builder: MacroBuilder, core: int,
                     outer: Mapping[str, int]):
        """(kind, array, buffer, lo, shape) -> planned slots of the DMA
        ops each swap schedule expands into (a dataless load rebinds)."""
        planned: Dict[tuple, List[int]] = {}
        for name, schedule in builder.core_schedules(core).items():
            model = ArraySwapModel.from_schedule(schedule)
            bounds = {event.index: event.crange.concrete(outer)
                      for event in model.events}
            for transfer in model.transfers:
                box = bounds[transfer.event_index]
                lo = tuple(b[0] for b in box)
                shape = tuple(b[1] - b[0] + 1 for b in box)
                kind = "unload" if transfer.op == UNLOAD else \
                    "load" if transfer.moves_data else "rebind"
                planned.setdefault(
                    (kind, name, transfer.buffer, lo, shape), []).append(
                        transfer.slot)
        return planned

    def _check_core_trace(self, builder: MacroBuilder, core: int,
                          trace: VmTrace) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        planned = self._planned_ops(builder, core, trace.outer)
        actual: Dict[tuple, List[int]] = {}
        for event in trace.events:
            if event.core != core or event.kind not in (
                    "load", "rebind", "unload"):
                continue
            key = (event.kind, event.array, event.buffer,
                   event.lo, event.shape)
            actual.setdefault(key, []).append(event.slot)

        for key in sorted(set(planned) | set(actual),
                          key=lambda k: (k[0], str(k[1]), k[2:])):
            kind, name, buffer, lo, shape = key
            want = sorted(planned.get(key, []))
            got = sorted(actual.get(key, []))
            for slot in want[len(got):]:
                out.append(Diagnostic(
                    "PREM401",
                    f"planned {kind} of {name}_buf{buffer} range "
                    f"lo={lo} shape={shape} (slot {slot}) never happened",
                    core=core, slot=slot, array=name, source="trace"))
            for slot in got[len(want):]:
                out.append(Diagnostic(
                    "PREM402",
                    f"unplanned extra {kind} of {name}_buf{buffer} "
                    f"range lo={lo} shape={shape} in slot {slot}",
                    core=core, slot=slot, array=name, source="trace"))
            for want_slot, got_slot in zip(want, got):
                if want_slot != got_slot:
                    out.append(Diagnostic(
                        "PREM403",
                        f"{kind} of {name}_buf{buffer} planned for slot "
                        f"{want_slot} ran in slot {got_slot}",
                        core=core, slot=got_slot, array=name,
                        source="trace"))

        out.extend(self._check_exec_bindings(builder, core, trace))
        return out

    def _check_exec_bindings(self, builder: MacroBuilder, core: int,
                             trace: VmTrace) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        schedules = builder.core_schedules(core)
        for event in trace.events:
            if event.kind != "exec" or event.core != core:
                continue
            bound = {name: (buffer, lo, shape)
                     for name, buffer, lo, shape in (event.used or ())}
            for name, schedule in schedules.items():
                current = schedule.event_at(event.segment)
                if current is None:
                    continue
                bounds = current.crange.concrete(trace.outer)
                lo = tuple(b[0] for b in bounds)
                shape = tuple(b[1] - b[0] + 1 for b in bounds)
                expected = (current.buffer, lo, shape)
                if bound.get(name) != expected:
                    got = bound.get(name)
                    out.append(Diagnostic(
                        "PREM404",
                        f"segment {event.segment} executed with "
                        f"{name} bound to {got}, expected {expected}",
                        core=core, segment=event.segment, array=name,
                        source="trace"))
        return out

    def _check_poison(self, trace: VmTrace) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        dirty: Dict[tuple, int] = {}      # (core, array, buffer) -> slot
        for event in trace.events:
            key = (event.core, event.array, event.buffer)
            if event.kind == "poison":
                dirty[key] = event.slot
            elif event.kind in ("load", "rebind"):
                dirty.pop(key, None)
            elif event.kind == "exec":
                for name, buffer, _lo, _shape in (event.used or ()):
                    slot = dirty.get((event.core, name, buffer))
                    if slot is not None:
                        out.append(Diagnostic(
                            "PREM405",
                            f"segment {event.segment} executed on "
                            f"{name}_buf{buffer} poisoned in slot {slot}",
                            core=event.core, segment=event.segment,
                            slot=slot, array=name, source="trace"))
        return out

    # -- timing pipeline -------------------------------------------------

    def check_timing(self, cores: Sequence[CoreSchedule],
                     injector) -> List[Diagnostic]:
        """Replay faulted durations against the static schedule.

        The unfaulted pipeline fixes every operation's start time (a
        real PREM deployment launches phases by this precomputed
        schedule).  A fault stretching an operation past the static
        start of anything depending on it breaks the schedule's
        correctness contract:

        - a DMA op running into the next round-robin DMA op (PREM411),
        - a transfer finishing after its consumer segment started
          (PREM412),
        - an execution phase overrunning into the next phase or into a
          DMA op it gates (PREM413).
        """
        baseline = static_timeline(cores)
        by_id = {core.core: core for core in cores}

        faulted_end: Dict[Tuple[str, int, int], float] = {}
        mem_ops: List[PipelineOp] = []
        exec_ops: Dict[Tuple[int, int], PipelineOp] = {}
        for op in baseline:
            if op.kind == "mem":
                length = injector.mem_ns(op.core, op.index, op.length_ns)
                mem_ops.append(op)
            else:
                length = injector.exec_ns(op.core, op.index, op.length_ns)
                exec_ops[(op.core, op.index)] = op
            faulted_end[(op.kind, op.core, op.index)] = op.start_ns + length

        out: List[Diagnostic] = []

        # Round-robin DMA order: the single DMA engine runs mem ops
        # back to back in baseline order.
        for current, upcoming in zip(mem_ops, mem_ops[1:]):
            end = faulted_end[("mem", current.core, current.index)]
            if end > upcoming.start_ns + TIMING_EPS_NS:
                out.append(Diagnostic(
                    "PREM411",
                    f"DMA op (core {current.core}, slot {current.index}) "
                    f"ends at {end:.1f} ns, past the next DMA op's "
                    f"static start {upcoming.start_ns:.1f} ns",
                    core=current.core, slot=current.index,
                    source="timing"))

        # Transfers must complete before their consumer segments start.
        for (core_id, segment), op in exec_ops.items():
            dep = by_id[core_id].dep_slot[segment - 1]
            if not dep:
                continue
            end = faulted_end.get(("mem", core_id, dep))
            if end is not None and end > op.start_ns + TIMING_EPS_NS:
                out.append(Diagnostic(
                    "PREM412",
                    f"slot {dep} finishes at {end:.1f} ns, after its "
                    f"consumer segment {segment} started at "
                    f"{op.start_ns:.1f} ns",
                    core=core_id, segment=segment, slot=dep,
                    source="timing"))

        # Execution phases may not overrun into successors they gate.
        for (core_id, segment), op in exec_ops.items():
            end = faulted_end[("exec", core_id, segment)]
            succ = exec_ops.get((core_id, segment + 1))
            if succ is not None and end > succ.start_ns + TIMING_EPS_NS:
                out.append(Diagnostic(
                    "PREM413",
                    f"segment {segment} runs until {end:.1f} ns, past "
                    f"segment {segment + 1}'s static start "
                    f"{succ.start_ns:.1f} ns",
                    core=core_id, segment=segment, source="timing"))
        for op in mem_ops:
            gate = exec_ops.get((op.core, op.index - 2))
            if gate is None:
                continue
            end = faulted_end[("exec", op.core, op.index - 2)]
            if end > op.start_ns + TIMING_EPS_NS:
                out.append(Diagnostic(
                    "PREM413",
                    f"segment {op.index - 2} runs until {end:.1f} ns, "
                    f"past the static start {op.start_ns:.1f} ns of the "
                    f"DMA op it gates (slot {op.index})",
                    core=op.core, segment=op.index - 2, slot=op.index,
                    source="timing"))
        return out

    # -- convenience -----------------------------------------------------

    @staticmethod
    def ensure(diagnostics: Sequence[Diagnostic]) -> None:
        """Raise :class:`InvariantViolationError` if any were found."""
        if diagnostics:
            raise InvariantViolationError(diagnostics)
