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
from functools import partial
from itertools import product
from types import MappingProxyType
from typing import (
    Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union,
)

import numpy as np

from ..errors import (
    BufferUnboundError,
    MissingComputeError,
    SpmAccessError,
)
from ..loopir.ast import Kernel, Loop, Stmt
from ..loopir.component import TilableComponent
from ..opt.solution import Solution
from .macros import ArraySwapSchedule, MacroBuilder, SwapEvent
from .ranges import tile_box
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

    A view of rank 1 to 4 (the kernels' ranks) is built as a
    rank-specialised subclass whose ``__getitem__``/``__setitem__``
    rebase and bounds-check a tuple index with inline integer compares,
    dimension by dimension as :meth:`_translate` does.  Every other index
    — wrong rank, not a tuple, or outside the range — goes through
    :meth:`_translate`, so each access is checked and each
    :class:`SpmAccessError` is the one the general path raises.
    """

    __slots__ = ("name", "_buffer", "_lo", "_shape", "_core", "_segment")

    def __new__(cls, name: str, buffer: np.ndarray,
                lo: Tuple[int, ...], shape: Tuple[int, ...],
                core: Optional[int] = None,
                segment: Optional[int] = None):
        if cls is SpmBufferView and len(lo) == len(shape):
            cls = _RANK_VIEWS.get(len(lo), cls)
        return super().__new__(cls)

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


class _SpmView1(SpmBufferView):
    __slots__ = ("_l0", "_n0")

    def __init__(self, name, buffer, lo, shape, core=None, segment=None):
        super().__init__(name, buffer, lo, shape, core, segment)
        (self._l0,), (self._n0,) = lo, shape

    def __getitem__(self, index: Index):
        if (type(index) is tuple and len(index) == 1
                and 0 <= (i := index[0] - self._l0) < self._n0):
            return self._buffer[i]
        return self._buffer[self._translate(index)]

    def __setitem__(self, index: Index, value) -> None:
        if (type(index) is tuple and len(index) == 1
                and 0 <= (i := index[0] - self._l0) < self._n0):
            self._buffer[i] = value
        else:
            self._buffer[self._translate(index)] = value


class _SpmView2(SpmBufferView):
    __slots__ = ("_l0", "_l1", "_n0", "_n1")

    def __init__(self, name, buffer, lo, shape, core=None, segment=None):
        super().__init__(name, buffer, lo, shape, core, segment)
        (self._l0, self._l1), (self._n0, self._n1) = lo, shape

    def __getitem__(self, index: Index):
        if (type(index) is tuple and len(index) == 2
                and 0 <= (i := index[0] - self._l0) < self._n0
                and 0 <= (j := index[1] - self._l1) < self._n1):
            return self._buffer[i, j]
        return self._buffer[self._translate(index)]

    def __setitem__(self, index: Index, value) -> None:
        if (type(index) is tuple and len(index) == 2
                and 0 <= (i := index[0] - self._l0) < self._n0
                and 0 <= (j := index[1] - self._l1) < self._n1):
            self._buffer[i, j] = value
        else:
            self._buffer[self._translate(index)] = value


class _SpmView3(SpmBufferView):
    __slots__ = ("_l0", "_l1", "_l2", "_n0", "_n1", "_n2")

    def __init__(self, name, buffer, lo, shape, core=None, segment=None):
        super().__init__(name, buffer, lo, shape, core, segment)
        (self._l0, self._l1, self._l2), (self._n0, self._n1, self._n2) = \
            lo, shape

    def __getitem__(self, index: Index):
        if (type(index) is tuple and len(index) == 3
                and 0 <= (i := index[0] - self._l0) < self._n0
                and 0 <= (j := index[1] - self._l1) < self._n1
                and 0 <= (k := index[2] - self._l2) < self._n2):
            return self._buffer[i, j, k]
        return self._buffer[self._translate(index)]

    def __setitem__(self, index: Index, value) -> None:
        if (type(index) is tuple and len(index) == 3
                and 0 <= (i := index[0] - self._l0) < self._n0
                and 0 <= (j := index[1] - self._l1) < self._n1
                and 0 <= (k := index[2] - self._l2) < self._n2):
            self._buffer[i, j, k] = value
        else:
            self._buffer[self._translate(index)] = value


class _SpmView4(SpmBufferView):
    __slots__ = ("_l0", "_l1", "_l2", "_l3", "_n0", "_n1", "_n2", "_n3")

    def __init__(self, name, buffer, lo, shape, core=None, segment=None):
        super().__init__(name, buffer, lo, shape, core, segment)
        (self._l0, self._l1, self._l2, self._l3), \
            (self._n0, self._n1, self._n2, self._n3) = lo, shape

    def __getitem__(self, index: Index):
        if (type(index) is tuple and len(index) == 4
                and 0 <= (i := index[0] - self._l0) < self._n0
                and 0 <= (j := index[1] - self._l1) < self._n1
                and 0 <= (k := index[2] - self._l2) < self._n2
                and 0 <= (m := index[3] - self._l3) < self._n3):
            return self._buffer[i, j, k, m]
        return self._buffer[self._translate(index)]

    def __setitem__(self, index: Index, value) -> None:
        if (type(index) is tuple and len(index) == 4
                and 0 <= (i := index[0] - self._l0) < self._n0
                and 0 <= (j := index[1] - self._l1) < self._n1
                and 0 <= (k := index[2] - self._l2) < self._n2
                and 0 <= (m := index[3] - self._l3) < self._n3):
            self._buffer[i, j, k, m] = value
        else:
            self._buffer[self._translate(index)] = value


_RANK_VIEWS = {1: _SpmView1, 2: _SpmView2, 3: _SpmView3, 4: _SpmView4}


# ---------------------------------------------------------------------------
# loop-body interpretation


Body = Callable[[Dict[str, int]], None]


def _prepare(items: Sequence[Union[Loop, Stmt]], data: Mapping,
             heads: Mapping[str, "PremRuntime"] = MappingProxyType({})
             ) -> Body:
    """One callable that runs a loop body at an iteration point.

    Statements are bound to *data* (main memory, or the SPM views of the
    executing segment), loop ranges are evaluated once, and statements
    without guards are called directly.  A loop whose iterator is in
    *heads* runs that component's :class:`PremRuntime` instead of its
    body, with the current point as outer iterators.
    """
    steps = [_prepare_loop(item, data, heads) if isinstance(item, Loop)
             else _prepare_stmt(item, data) for item in items]
    if len(steps) == 1:
        return steps[0]

    def run(point):
        for step in steps:
            step(point)
    return run


def _prepare_stmt(stmt: Stmt, data: Mapping) -> Body:
    compute, guards = stmt.compute, tuple(stmt.guards)
    if compute is None:
        def missing(point):
            raise MissingComputeError(stmt.name)
        return missing
    if not guards:
        return partial(compute, data)

    def guarded(point):
        for guard in guards:
            if not guard.satisfied(point):
                return
        compute(data, point)
    return guarded


def _prepare_loop(loop: Loop, data: Mapping,
                  heads: Mapping[str, "PremRuntime"]) -> Body:
    var, guards = loop.var, tuple(loop.guards)
    runtime = heads.get(var)
    values = loop.loop_range.values()
    body = _prepare(loop.body, data, heads) if runtime is None else None

    def run(point):
        for guard in guards:
            if not guard.satisfied(point):
                return
        if runtime is not None:
            runtime.run(data, outer=point)
            return
        for value in values:
            point[var] = value
            body(point)
        point.pop(var, None)       # a zero-trip loop bound nothing
    return run


class SequentialInterpreter:
    """Reference executor: original program order, main memory only.

    It walks the loop tree directly and shares no code with the VM's
    prepared bodies, so it stays an independent oracle for them."""

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
        point.pop(loop.var, None)      # a zero-trip loop bound nothing

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

    The per-core swap schedules, tiles and DMA op index do not depend on
    the outer iterators (``CanonicalRange.concrete`` binds those at DMA
    time), so the first :meth:`run` builds them and later runs — one per
    outer iteration — reuse them.
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
        self._cores: Optional[List[_CoreState]] = None
        #: SPM views of the executing segment, bound into ``_body``.
        self._views: Dict[str, SpmBufferView] = {}
        self._body: Optional[Body] = None

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
        if self._cores is None:
            self._cores = [_CoreState(self, core)
                           for core in range(self.solution.threads)]
            self._body = _prepare(self.component.nodes[-1].loop.body,
                                  self._views)
        cores = self._cores
        for core in cores:
            core.reset(main_memory, outer)
        max_rounds = max((core.n_segments for core in cores), default=0)
        for slot in range(1, max_rounds + 3):
            for core in cores:
                core.dma_slot(slot)
            segment = slot
            for core in cores:
                if segment <= core.n_segments:
                    core.execute_segment(segment, self._views, self._body)


class _CoreState:
    """SPM buffers and swap bookkeeping of one core.

    Built once per :class:`PremRuntime`; :meth:`reset` re-poisons and
    unbinds the buffers for each run."""

    def __init__(self, runtime: PremRuntime, core: int):
        component, solution = runtime.component, runtime.solution
        self.core = core
        self.injector = runtime.injector
        self.trace = runtime.trace
        self.bounding_shapes = runtime.builder.bounding_shapes
        self.schedules: Dict[str, ArraySwapSchedule] = \
            runtime.builder.core_schedules(core)
        self.band_vars = component.band_vars
        #: Per segment: the band loops' iteration ranges.
        self.bands: List[Tuple[range, ...]] = []
        for indices in solution.core_tiles(core):
            box = tile_box(component, indices, solution.tile_sizes)
            self.bands.append(tuple(
                range(box[node.var][0], box[node.var][1] + 1, node.S)
                for node in component.nodes))
        self.n_segments = len(self.bands)
        #: Per segment: (array, buffer) of every swap event in force.
        self.in_use: List[List[Tuple[str, int]]] = [
            [] for _ in range(self.n_segments)]
        for name, schedule in self.schedules.items():
            events = schedule.events
            for event, after in zip(events, events[1:] + [None]):
                stop = self.n_segments + 1 if after is None \
                    else after.segment
                for segment in range(event.segment, stop):
                    self.in_use[segment - 1].append((name, event.buffer))
        #: DMA slot -> (op, array, event) in firing order.
        self.ops = self._index_ops(runtime.modes)

        self.main: Mapping[str, np.ndarray] = {}
        self.outer: Mapping[str, int] = {}
        self.buffers: Dict[Tuple[str, int], np.ndarray] = {}
        self.buffer_range: Dict[Tuple[str, int], Optional[Tuple]] = {}

    def reset(self, main_memory: Mapping[str, np.ndarray],
              outer: Mapping[str, int]) -> None:
        """Start a run: fresh (poisoned) buffers, nothing bound."""
        self.main = main_memory
        self.outer = outer
        for name, bbox in self.bounding_shapes.items():
            dtype = main_memory[name].dtype
            for buffer in (1, 2):
                spm = self.buffers.get((name, buffer))
                if spm is None or spm.dtype != dtype:
                    spm = np.empty(bbox, dtype=dtype)
                    self.buffers[(name, buffer)] = spm
                if np.issubdtype(dtype, np.floating):
                    spm.fill(POISON)
                self.buffer_range[(name, buffer)] = None

    # -- DMA ---------------------------------------------------------------

    def _index_ops(self, modes: Mapping[str, str]
                   ) -> Dict[int, List[Tuple[str, str, SwapEvent]]]:
        """Every DMA op keyed by the slot it fires in.

        Within a slot, arrays go in schedule order; per array, unloads in
        event order, then loads (or, for write-only arrays, rebinds)."""
        ops: Dict[int, List[Tuple[str, str, SwapEvent]]] = {}
        for name, schedule in self.schedules.items():
            mode = modes[name]
            if mode in (WO, RW):
                for event in schedule.events:
                    for slot in self._fire_slots(
                            schedule.unload_slot(event.index),
                            name, event, "unload"):
                        ops.setdefault(slot, []).append(
                            ("unload", name, event))
            transfer = "load" if mode in (RO, RW) else \
                "rebind" if mode == WO else None
            if transfer is None:
                continue
            for event in schedule.events:
                for slot in self._fire_slots(
                        schedule.transfer_slot(event.index),
                        name, event, "load"):
                    ops.setdefault(slot, []).append((transfer, name, event))
        return ops

    def _fire_slots(self, base_slot: int, name: str, event: SwapEvent,
                    op: str) -> Tuple[int, ...]:
        """The slots in which the DMA op scheduled for *base_slot* runs.

        Without an injector that is *base_slot*.  The injector may drop
        the op, move it to a later slot, or have it fire a second time
        at a duplicate slot.
        """
        injector = self.injector
        if injector is None:
            return (base_slot,)
        if injector.drops(self.core, name, event.index, op):
            return ()
        effective = base_slot + injector.delay_slots(
            self.core, name, event.index, op)
        extra = injector.duplicate_offset(self.core, name, event.index, op)
        if extra is None or base_slot + extra == effective:
            return (effective,)
        return (effective, base_slot + extra)

    def dma_slot(self, slot: int) -> None:
        for op, name, event in self.ops.get(slot, ()):
            bounds = event.crange.concrete(self.outer)
            lo = tuple(b[0] for b in bounds)
            shape = tuple(b[1] - b[0] + 1 for b in bounds)
            key = (name, event.buffer)
            spm = self.buffers[key]
            if op == "rebind":
                # No data moves, but the buffer is rebound to the new
                # range (and re-poisoned: stale contents are garbage).
                if np.issubdtype(spm.dtype, np.floating):
                    spm.fill(POISON)
            else:
                slices = tuple(slice(b[0], b[1] + 1) for b in bounds)
                region = tuple(slice(0, extent) for extent in shape)
                if op == "load":
                    spm[region] = self.main[name][slices]
                else:
                    self.main[name][slices] = spm[region]
            if op != "unload":
                self.buffer_range[key] = (lo, shape)
            if self.trace is not None:
                self.trace.add(kind=op, core=self.core, slot=slot,
                               array=name, buffer=event.buffer,
                               lo=lo, shape=shape)
            if op == "load":
                self._maybe_poison(name, event, spm, slot)

    def _maybe_poison(self, name: str, event: SwapEvent, spm: np.ndarray,
                      slot: int) -> None:
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

    # -- execution phases -----------------------------------------------------

    def execute_segment(self, segment: int,
                        views: Dict[str, SpmBufferView], body: Body) -> None:
        """Run *segment*'s tile on SPM only: *body* is bound to *views*,
        which this rebinds to the segment's buffers."""
        views.clear()
        used = []
        for name, buffer in self.in_use[segment - 1]:
            bound = self.buffer_range[(name, buffer)]
            if bound is None:
                raise BufferUnboundError(
                    name, buffer, core=self.core, segment=segment)
            lo, shape = bound
            views[name] = SpmBufferView(
                name, self.buffers[(name, buffer)], lo, shape,
                core=self.core, segment=segment)
            used.append((name, buffer, lo, shape))
        if self.trace is not None:
            self.trace.add(kind="exec", core=self.core, segment=segment,
                           used=tuple(used))

        point = dict(self.outer)
        *outer_vars, var = self.band_vars
        *outer_ranges, values = self.bands[segment - 1]
        for head in product(*outer_ranges):
            point.update(zip(outer_vars, head))
            for value in values:
                point[var] = value
                body(point)


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
    _prepare(kernel.roots, arrays, runtimes)({})
