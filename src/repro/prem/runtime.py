"""Functional PREM virtual machine (the paper's gem5-run, semantically).

The paper validates its generated code by running it; this module does the
same at the semantic level.  :class:`SequentialInterpreter` executes a
kernel in original program order on numpy-backed main memory.
:class:`PremRuntime` executes one tilable component the way the generated
PREM code would: per-core double-buffered SPM arrays sized by the bounding
boxes, DMA loads/unloads driven by the swap schedules of
:mod:`repro.prem.macros`, and execution phases that may touch *only* the
SPM — every access is translated through the segment's canonical range and
bounds-checked, so a wrong range or a mis-scheduled swap surfaces as a
hard error or a result mismatch, not silently.

Write-only buffers are poisoned at allocation; an exposed read of
unwritten data propagates the poison into the final comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import (
    BufferUnboundError,
    MissingComputeError,
    SpmAccessError,
)
from ..loopir.ast import Kernel, Loop, Stmt
from ..loopir.component import TilableComponent
from ..opt.solution import Solution
from .macros import ArraySwapSchedule, MacroBuilder
from .segments import RO, RW, WO

Index = Union[int, Tuple[int, ...]]

#: Poison value for never-loaded (write-only) buffer contents.
POISON = float("nan")


@dataclass(frozen=True)
class VmTraceEvent:
    """One observed VM action (DMA op, execution phase, or fault)."""

    kind: str                     # load | unload | rebind | poison | exec
    core: int
    slot: Optional[int] = None
    segment: Optional[int] = None
    array: Optional[str] = None
    buffer: Optional[int] = None
    lo: Optional[Tuple[int, ...]] = None
    shape: Optional[Tuple[int, ...]] = None
    element: Optional[int] = None
    used: Optional[Tuple[Tuple[str, int, Tuple[int, ...],
                                Tuple[int, ...]], ...]] = None


@dataclass
class VmTrace:
    """Chronological record of what one VM run actually did.

    The trace is what :class:`repro.faults.PremInvariantChecker` audits
    against the *planned* swap schedules: a perturbed run leaves a
    different trail (missing / extra / relocated DMA ops, execution
    phases bound to stale ranges), which the checker turns into
    structured diagnostics.
    """

    events: List[VmTraceEvent] = field(default_factory=list)
    outer: Dict[str, int] = field(default_factory=dict)

    def add(self, **kwargs) -> None:
        self.events.append(VmTraceEvent(**kwargs))

    def by_kind(self, kind: str) -> List[VmTraceEvent]:
        return [event for event in self.events if event.kind == kind]


class SpmBufferView:
    """Indexable view of one SPM buffer, addressed with *global* indices.

    The generated code accesses buffers with rebased subscripts; the VM
    keeps statements unchanged and performs the rebasing here, asserting
    that every touched element lies inside the segment's canonical range.
    """

    def __init__(self, name: str, buffer: np.ndarray,
                 lo: Tuple[int, ...], shape: Tuple[int, ...],
                 core: Optional[int] = None,
                 segment: Optional[int] = None):
        self.name = name
        self._buffer = buffer
        self._lo = lo
        self._shape = shape
        self._core = core
        self._segment = segment

    def _translate(self, index: Index) -> Tuple[int, ...]:
        if not isinstance(index, tuple):
            index = (index,)
        if len(index) != len(self._lo):
            raise SpmAccessError(
                self.name, index, self._lo, self._shape,
                core=self._core, segment=self._segment,
                detail=f"rank {len(index)} does not match")
        local = []
        for value, lo, extent in zip(index, self._lo, self._shape):
            offset = value - lo
            if not 0 <= offset < extent:
                raise SpmAccessError(
                    self.name, index, self._lo, self._shape,
                    core=self._core, segment=self._segment)
            local.append(offset)
        return tuple(local)

    def __getitem__(self, index: Index):
        return self._buffer[self._translate(index)]

    def __setitem__(self, index: Index, value) -> None:
        self._buffer[self._translate(index)] = value


class SequentialInterpreter:
    """Reference executor: original program order, main memory only."""

    def run(self, kernel: Kernel,
            arrays: Mapping[str, np.ndarray]) -> None:
        for root in kernel.roots:
            self._run_loop(root, arrays, {})

    def _run_loop(self, loop: Loop, arrays, point: Dict[str, int]) -> None:
        if not all(g.satisfied(point) for g in loop.guards):
            return
        for value in loop.loop_range.values():
            point[loop.var] = value
            for child in loop.body:
                if isinstance(child, Stmt):
                    self._run_stmt(child, arrays, point)
                else:
                    self._run_loop(child, arrays, point)
        del point[loop.var]

    @staticmethod
    def _run_stmt(stmt: Stmt, arrays, point: Dict[str, int]) -> None:
        if stmt.compute is None:
            raise MissingComputeError(stmt.name)
        if all(g.satisfied(point) for g in stmt.guards):
            stmt.compute(arrays, point)


class PremRuntime:
    """Executes one component execution under the streaming PREM schedule.

    *injector* (optional, duck-typed — see
    :class:`repro.faults.FaultInjector`) perturbs the DMA swap stream and
    the SPM contents; *trace* (optional :class:`VmTrace`) records every
    DMA op and execution phase for later invariant auditing.  With both
    left at ``None`` the run is bit-identical to the unhooked VM.
    """

    def __init__(self, component: TilableComponent, solution: Solution,
                 modes: Mapping[str, str] | None = None,
                 injector=None, trace: Optional[VmTrace] = None):
        self.component = component
        self.solution = solution
        self.builder = MacroBuilder(component, solution, modes)
        self.modes = self.builder.modes
        self.injector = injector
        self.trace = trace

    def run(self, main_memory: Mapping[str, np.ndarray],
            outer: Mapping[str, int] | None = None) -> None:
        """One execution of the component, mutating *main_memory*.

        Rounds proceed slot by slot: first every core's DMA work for the
        slot (unloads then loads), then every core's execution phase —
        legal schedules make parallel written ranges disjoint, so this
        canonical interleaving is representative.
        """
        outer = dict(outer or {})
        if self.trace is not None:
            self.trace.outer.update(outer)
        cores = [
            _CoreState(self.component, self.solution, self.builder,
                       self.modes, core, main_memory, outer,
                       injector=self.injector, trace=self.trace)
            for core in range(self.solution.threads)
        ]
        max_rounds = max((core.n_segments for core in cores), default=0)
        for slot in range(1, max_rounds + 3):
            for core in cores:
                core.dma_slot(slot)
            segment = slot
            for core in cores:
                if segment <= core.n_segments:
                    core.execute_segment(segment)


class _CoreState:
    """SPM buffers and swap bookkeeping of one core."""

    def __init__(self, component: TilableComponent, solution: Solution,
                 builder: MacroBuilder, modes: Mapping[str, str],
                 core: int, main_memory: Mapping[str, np.ndarray],
                 outer: Mapping[str, int],
                 injector=None, trace: Optional[VmTrace] = None):
        self.component = component
        self.solution = solution
        self.core = core
        self.main = main_memory
        self.outer = dict(outer)
        self.injector = injector
        self.trace = trace
        self.schedules: Dict[str, ArraySwapSchedule] = \
            builder.core_schedules(core)
        self.modes = modes
        self.tiles = list(solution.core_tiles(core))
        self.n_segments = len(self.tiles)

        self.buffers: Dict[Tuple[str, int], np.ndarray] = {}
        self.buffer_range: Dict[Tuple[str, int], Optional[Tuple]] = {}
        arrays = component.arrays()
        for name, bbox in builder.bounding_shapes.items():
            dtype = main_memory[name].dtype
            for buffer in (1, 2):
                spm = np.empty(bbox, dtype=dtype)
                if np.issubdtype(dtype, np.floating):
                    spm.fill(POISON)
                self.buffers[(name, buffer)] = spm
                self.buffer_range[(name, buffer)] = None

    # -- DMA ---------------------------------------------------------------

    def dma_slot(self, slot: int) -> None:
        for name, schedule in self.schedules.items():
            mode = self.modes[name]
            for event in schedule.events:
                if mode in (WO, RW) and self._op_fires(
                        schedule.unload_slot(event.index), slot,
                        name, event, "unload"):
                    self._unload(name, event, slot)
            for event in schedule.events:
                if mode in (RO, RW):
                    if self._op_fires(schedule.transfer_slot(event.index),
                                      slot, name, event, "load"):
                        self._load(name, event, slot)
                elif mode == WO and self._op_fires(
                        schedule.transfer_slot(event.index), slot,
                        name, event, "load"):
                    # No data moves, but the buffer is rebound to the new
                    # range (and re-poisoned: stale contents are garbage).
                    spm = self.buffers[(name, event.buffer)]
                    if np.issubdtype(spm.dtype, np.floating):
                        spm.fill(POISON)
                    self._bind(name, event)
                    self._record("rebind", slot, name, event)

    def _op_fires(self, base_slot: int, slot: int, name: str, event,
                  op: str) -> bool:
        """Whether the DMA op scheduled for *base_slot* runs in *slot*.

        Without an injector this is plain equality.  The injector may
        drop the op, move it to a later slot, or have it fire a second
        time at a duplicate slot.
        """
        if self.injector is None:
            return base_slot == slot
        if self.injector.drops(self.core, name, event.index, op):
            return False
        effective = base_slot + self.injector.delay_slots(
            self.core, name, event.index, op)
        if effective == slot:
            return True
        extra = self.injector.duplicate_offset(
            self.core, name, event.index, op)
        return extra is not None and base_slot + extra == slot

    def _bounds(self, event) -> Tuple[Tuple[int, int], ...]:
        return event.crange.concrete(self.outer)

    def _bind(self, name: str, event) -> None:
        bounds = self._bounds(event)
        lo = tuple(b[0] for b in bounds)
        shape = tuple(b[1] - b[0] + 1 for b in bounds)
        self.buffer_range[(name, event.buffer)] = (lo, shape)

    def _load(self, name: str, event, slot: Optional[int] = None) -> None:
        bounds = self._bounds(event)
        slices = tuple(slice(lo, hi + 1) for lo, hi in bounds)
        shape = tuple(hi - lo + 1 for lo, hi in bounds)
        spm = self.buffers[(name, event.buffer)]
        region = tuple(slice(0, extent) for extent in shape)
        spm[region] = self.main[name][slices]
        self._bind(name, event)
        self._record("load", slot, name, event)
        self._maybe_poison(name, event, spm, slot)

    def _unload(self, name: str, event, slot: Optional[int] = None) -> None:
        bounds = self._bounds(event)
        slices = tuple(slice(lo, hi + 1) for lo, hi in bounds)
        shape = tuple(hi - lo + 1 for lo, hi in bounds)
        spm = self.buffers[(name, event.buffer)]
        region = tuple(slice(0, extent) for extent in shape)
        self.main[name][slices] = spm[region]
        self._record("unload", slot, name, event)

    def _maybe_poison(self, name: str, event, spm: np.ndarray,
                      slot: Optional[int]) -> None:
        if self.injector is None:
            return
        for element in self.injector.poison_elements(
                self.core, name, event.index):
            if np.issubdtype(spm.dtype, np.floating):
                spm.flat[element % spm.size] = POISON
            if self.trace is not None:
                self.trace.add(kind="poison", core=self.core, slot=slot,
                               array=name, buffer=event.buffer,
                               element=element % spm.size)

    def _record(self, kind: str, slot: Optional[int], name: str,
                event) -> None:
        if self.trace is None:
            return
        bounds = self._bounds(event)
        self.trace.add(
            kind=kind, core=self.core, slot=slot, array=name,
            buffer=event.buffer,
            lo=tuple(b[0] for b in bounds),
            shape=tuple(b[1] - b[0] + 1 for b in bounds))

    # -- execution phases -----------------------------------------------------

    def execute_segment(self, segment: int) -> None:
        from .ranges import tile_box

        views: Dict[str, SpmBufferView] = {}
        used = []
        for name, schedule in self.schedules.items():
            event = schedule.event_at(segment)
            if event is None:
                continue
            bound = self.buffer_range[(name, event.buffer)]
            if bound is None:
                raise BufferUnboundError(
                    name, event.buffer, core=self.core, segment=segment)
            lo, shape = bound
            views[name] = SpmBufferView(
                name, self.buffers[(name, event.buffer)], lo, shape,
                core=self.core, segment=segment)
            used.append((name, event.buffer, lo, shape))
        if self.trace is not None:
            self.trace.add(kind="exec", core=self.core, segment=segment,
                           used=tuple(used))

        indices = self.tiles[segment - 1]
        box = tile_box(self.component, indices, self.solution.tile_sizes)
        self._run_tile(box, views)

    def _run_tile(self, box, views) -> None:
        order = list(self.component.band_vars)
        inner = self.component.full_inner_box()
        point = dict(self.outer)

        def run_band(depth: int):
            if depth == len(order):
                self._run_body(self.component.nodes[-1].loop.body, point)
                return
            var = order[depth]
            lo, hi = box[var]
            stride = self.component.nodes[depth].S
            for value in range(lo, hi + 1, stride):
                point[var] = value
                run_band(depth + 1)
            del point[var]

        self._views = views
        run_band(0)

    def _run_body(self, body, point) -> None:
        for child in body:
            if isinstance(child, Stmt):
                if child.compute is None:
                    raise MissingComputeError(child.name)
                if all(g.satisfied(point) for g in child.guards):
                    child.compute(self._views, point)
            else:
                if not all(g.satisfied(point) for g in child.guards):
                    continue
                for value in child.loop_range.values():
                    point[child.var] = value
                    self._run_body(child.body, point)
                del point[child.var]


# ---------------------------------------------------------------------------
# whole-kernel execution with chosen components


def init_arrays(kernel: Kernel, seed: int = 7) -> Dict[str, np.ndarray]:
    """Deterministic main-memory image for a kernel (float arrays)."""
    rng = np.random.default_rng(seed)
    arrays = {}
    for array in kernel.arrays.values():
        dtype = np.float64 if array.etype == "double" else np.float32
        arrays[array.name] = rng.uniform(
            -1.0, 1.0, size=array.shape).astype(dtype)
    return arrays


def run_kernel_prem(kernel: Kernel,
                    components: Mapping[str, Tuple[TilableComponent,
                                                   Solution]],
                    arrays: Mapping[str, np.ndarray]) -> None:
    """Execute a kernel, running each chosen component under the PREM VM.

    *components* maps a component's head iterator to (component, solution).
    Loops outside any component run sequentially; each time control reaches
    a component head, one PREM component execution happens with the current
    outer iterators pinned.
    """
    runtimes = {
        head: PremRuntime(component, solution)
        for head, (component, solution) in components.items()
    }

    def run_loop(loop: Loop, point: Dict[str, int]) -> None:
        if not all(g.satisfied(point) for g in loop.guards):
            return
        if loop.var in runtimes:
            runtimes[loop.var].run(arrays, outer=point)
            return
        for value in loop.loop_range.values():
            point[loop.var] = value
            for child in loop.body:
                if isinstance(child, Stmt):
                    if all(g.satisfied(point) for g in child.guards):
                        child.compute(arrays, point)
                else:
                    run_loop(child, point)
        del point[loop.var]

    for root in kernel.roots:
        run_loop(root, {})
