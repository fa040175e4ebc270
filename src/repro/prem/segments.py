"""Per-core PREM segment plans (Sections 3.5 and 4.2).

Given a tilable component and an optimization solution, this module derives
everything the makespan evaluator and the code generator need:

- the per-core tile (= segment) sequence, walked in odometer order;
- for every array, the segments where its canonical range changes —
  the ``SegmentToSwap_a(i)`` sets — detected structurally: the range of an
  array changes exactly when a band level whose iterator appears in the
  array's subscripts advances;
- buffer modes (RO / WO / RW, Section 5.3.2);
- the placement of every DMA transfer into round-robin *slots* following
  the streaming rules of Section 3.5 (transfer for the x-th swap of an
  array happens during the execution of the segment right after the
  (x-1)-th swap; initial loads through ``dispatch``; trailing unloads
  after the final segment), plus the PREM API costs charged to each
  execution phase.

This module is the one copy of the segment legality rules (SPM fit,
segment cap, Section 5.3.1's write overlap): the batch evaluator
(``repro.opt.vectorized``) calls :meth:`SegmentPlanner.preflight`
instead of keeping its own, and the memos both paths share live here —
array plans per tile-size vector in the planner, the platform-free
hulls (separating-dimension test included) in the component's one
:class:`TileGeometry`.

Slot convention: the DMA op in slot ``s`` of core ``i`` runs between the
executions of segments ``s-2`` and ``s-1``..``s`` — it may start once
``exec(i, s-2)`` has finished and typically overlaps ``exec(i, s-1)``.
Slots ``1..n`` precede their same-numbered segment; slots ``n+1`` and
``n+2`` carry the trailing unloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import InfeasibleScheduleError
from ..loopir.component import TilableComponent
from ..poly.access import Array
from ..poly.affine import lex_compare
from ..poly.constraint import EQ
from ..poly.dependence import shared_prefix
from ..opt.solution import Solution
from ..timing.execmodel import ExecModel
from ..timing.memory import transfer_bytes, transfer_time_ns
from ..timing.platform import Platform
from .ranges import (
    RangeProgram, _stmt_guards, hull_shape, tile_interval)

RO = "RO"
WO = "WO"
RW = "RW"


def swap_api_name(ndim: int) -> str:
    """Which swap API a buffer of the given rank uses."""
    if ndim <= 1:
        return "swap_buffer"
    if ndim == 2:
        return "swap2d_buffer"
    return "swapnd_buffer"


# ---------------------------------------------------------------------------
# buffer modes (Section 5.3.2)


def classify_modes(component: TilableComponent) -> Dict[str, str]:
    """RO / WO / RW classification of every array in the component.

    An array is WO when it is only written, or when every read is covered
    by an earlier write of the same subscripts — detected for the corpus's
    initialisation pattern: a textually earlier statement writing the same
    subscript expressions whose guards pin any extra iterator to its
    loop's first value (e.g. the ``p == 0`` gate initialisations in LSTM).
    """
    kernel = component.kernel
    modes: Dict[str, str] = {}
    for name in component.arrays():
        pairs = component.accesses(name)
        reads = [(s, a) for s, a in pairs if a.is_read]
        writes = [(s, a) for s, a in pairs if a.is_write]
        if not writes:
            modes[name] = RO
        elif not reads:
            modes[name] = WO
        elif all(_read_covered(kernel, read, writes) for read in reads):
            modes[name] = WO
        else:
            modes[name] = RW
    return modes


def _read_covered(kernel, read_pair, write_pairs) -> bool:
    read_stmt, read_access = read_pair
    for write_stmt, write_access in write_pairs:
        if write_stmt.name == read_stmt.name:
            continue
        if write_access.indices != read_access.indices:
            continue
        if not _textually_before(kernel, write_stmt.name, read_stmt.name):
            continue
        if _guards_pin_to_first(kernel, write_stmt):
            return True
    return False


def _textually_before(kernel, first: str, second: str) -> bool:
    dom_a = kernel.stmt_domain(first).iterators
    dom_b = kernel.stmt_domain(second).iterators
    depth = len(shared_prefix(dom_a, dom_b))
    statics_a = kernel.stmt_schedule(first).statics_below(depth)
    statics_b = kernel.stmt_schedule(second).statics_below(depth)
    width = min(len(statics_a), len(statics_b))
    return lex_compare(statics_a[:width], statics_b[:width]) < 0


def _guards_pin_to_first(kernel, stmt) -> bool:
    """Every guard is an equality pinning an iterator to its first value."""
    for guard in stmt.guards:
        variables = sorted(guard.variables())
        if guard.kind != EQ or len(variables) != 1:
            return False
        var = variables[0]
        coeff = guard.expr.coeff(var)
        const = guard.expr.constant
        if const % coeff != 0:
            return False
        value = -const // coeff
        if value != kernel.loop_by_var(var).begin:
            return False
    return True


# ---------------------------------------------------------------------------
# shared range geometry


class TileGeometry:
    """Memoized per-array tile geometry of one component (Section 5.3.1).

    Hulls depend only on the loop nest and on the tile sizes of the band
    iterators in an array's subscripts or in the guards of its accessing
    statements — the array's *key variables* — never on a platform or an
    exec model.  So every memo is keyed by the restricted
    ``(array, var -> K)`` sub-key, and one instance, reached as
    ``component.geometry``, serves every planner (nominal and scenario),
    bound calculator, macro builder and verifier pass of a compile.
    Every hull is evaluated by the array's
    :class:`~repro.prem.ranges.RangeProgram`, compiled once per
    component.  Consumers price the shapes themselves: transfer ns on
    their own platform (:meth:`SegmentPlanner.range_cost`), exec ns
    with their own model.
    """

    def __init__(self, component: TilableComponent):
        self.component = component
        self._programs: Dict[str, RangeProgram] = {}
        self._key_vars: Dict[str, Tuple[str, ...]] = {}
        self._relevant: Dict[Tuple, Tuple[int, ...]] = {}
        self._bounding: Dict[Tuple, Tuple[int, ...]] = {}
        self._range: Dict[Tuple, Tuple[Tuple[int, ...], int]] = {}
        self._extent: Dict[Tuple, int] = {}
        self._separating: Dict[Tuple[str, int, int], bool] = {}

    def program(self, name: str) -> RangeProgram:
        """The compiled :class:`~repro.prem.ranges.RangeProgram` of
        *name*'s accesses, built on first use."""
        program = self._programs.get(name)
        if program is None:
            program = self._programs[name] = RangeProgram(
                self.component, name)
        return program

    def key_vars(self, name: str) -> Tuple[str, ...]:
        """Band iterators that can move *name*'s hull: those appearing in
        a subscript or in a guard of an accessing statement."""
        cached = self._key_vars.get(name)
        if cached is None:
            used = set()
            for stmt, access in self.component.accesses(name):
                for expr in access.indices:
                    used.update(expr.coeffs)
                for guard in _stmt_guards(self.component, stmt):
                    used.update(guard.variables())
            cached = tuple(
                v for v in self.component.band_vars if v in used)
            self._key_vars[name] = cached
        return cached

    def _subkey(self, name: str, tile_sizes: Mapping[str, int]) -> Tuple:
        return tuple((v, int(tile_sizes[v])) for v in self.key_vars(name))

    def relevant_levels(self, name: str,
                        tile_sizes: Mapping[str, int]) -> Tuple[int, ...]:
        """Levels whose tile index actually moves the array's hull.

        Subscript coefficients alone are not enough: a read covering the
        whole array (e.g. the RNN in-place state update reading ``h[s3]``
        over the full state range) pins the hull regardless of the
        write's tile, so the range never changes and the buffer is never
        swapped.  The test compares the hull of the all-first tile with
        that of its neighbour along each key level that has one.
        """
        key = (name, self._subkey(name, tile_sizes))
        cached = self._relevant.get(key)
        if cached is None:
            program = self.program(name)
            key_vars = self.key_vars(name)
            box = [tile_interval(node, 0, tile_sizes[node.var])
                   for node in self.component.nodes]
            base = program.hull(box)
            relevant = []
            for level, node in enumerate(self.component.nodes):
                size = tile_sizes[node.var]
                if node.var not in key_vars or node.N <= size:
                    continue
                shifted = list(box)
                shifted[level] = tile_interval(node, 1, size)
                if program.hull(shifted) != base:
                    relevant.append(level)
            cached = tuple(relevant)
            self._relevant[key] = cached
        return cached

    def bounding_shape(self, name: str,
                       tile_sizes: Mapping[str, int]) -> Tuple[int, ...]:
        """Componentwise-max canonical range over sampled tiles.

        Hulls are monotone in the tile box, so the full (non-remainder)
        tile dominates every boundary tile; sampling the first and last
        tile of every key level, crossed over levels, covers
        guard-activated statements as well.  Other levels cannot move
        the hull and stay on their first tile."""
        key = (name, self._subkey(name, tile_sizes))
        cached = self._bounding.get(key)
        if cached is None:
            program = self.program(name)
            key_vars = self.key_vars(name)
            choices = []
            for node in self.component.nodes:
                size = tile_sizes[node.var]
                first = tile_interval(node, 0, size)
                if node.var in key_vars and node.N > size:
                    choices.append((first, tile_interval(
                        node, -(-node.N // size) - 1, size)))
                else:
                    choices.append((first,))
            best: Optional[List[int]] = None
            for box in product(*choices):
                hull = program.hull(box)
                if hull is None:
                    continue
                shape = hull_shape(hull)
                best = list(shape) if best is None else \
                    [max(b, s) for b, s in zip(best, shape)]
            if best is None:
                raise LookupError(
                    f"array {name} is never accessed in component "
                    f"{self.component.label()}")
            cached = self._bounding[key] = tuple(best)
        return cached

    def bounding_bytes(self, name: str,
                       tile_sizes: Mapping[str, int]) -> int:
        shape = self.bounding_shape(name, tile_sizes)
        total = self.program(name).array.element_size
        for extent in shape:
            total *= extent
        return total

    def range_shape(self, name: str, tile_sizes: Mapping[str, int],
                    widths: Mapping[str, int]
                    ) -> Tuple[Tuple[int, ...], int]:
        """(shape, bytes) of the canonical range of the tile selected by
        *widths*: per level, a width equal to the tile size selects the
        first tile, anything else the remainder tile.  A tile that does
        not touch the array has shape ``()`` and 0 bytes."""
        key = (name, tuple(
            (v, int(tile_sizes[v]), int(widths.get(v, tile_sizes[v])))
            for v in self.key_vars(name)))
        cached = self._range.get(key)
        if cached is None:
            box = []
            for node in self.component.nodes:
                size = int(tile_sizes[node.var])
                index = 0 if int(widths.get(node.var, size)) == size \
                    else -(-node.N // size) - 1
                box.append(tile_interval(node, index, size))
            program = self.program(name)
            hull = program.hull(box)
            if hull is None:
                cached = ((), 0)
            else:
                shape = hull_shape(hull)
                cached = (shape, transfer_bytes(
                    shape, program.array.element_size))
            self._range[key] = cached
        return cached

    def first_tile_extent(self, name: str, dim: int,
                          tile_sizes: Mapping[str, int]) -> int:
        """Extent of dimension *dim* of the all-first tile's hull of an
        array whose accesses carry no guards.  It depends only on the
        sizes of the dimension's support (:attr:`RangeProgram.support`),
        the only entries *tile_sizes* needs and the memo key.  By hull
        monotonicity it is a lower bound on :meth:`bounding_shape`'s
        extent."""
        program = self.program(name)
        support = program.support[dim]
        key = (name, dim, tuple(tile_sizes[v] for v in support))
        cached = self._extent.get(key)
        if cached is None:
            box = [tile_interval(node, 0, tile_sizes.get(node.var, 1))
                   for node in self.component.nodes]
            _, lo, hi = program.hull(box)[dim]
            cached = self._extent[key] = hi - lo + 1
        return cached

    def has_separating_dim(self, name: str, level: int,
                           tile_k: int) -> bool:
        """A dimension whose subscript depends (among band and outer vars)
        only on level *level*'s iterator with one common coefficient, and
        whose full-tile hull extent does not exceed the shift between
        adjacent tiles of size *tile_k*.

        The extent accounts for constant spread across accesses (e.g.
        ``c_F[t]`` written and ``c_F[t-1]`` read make the hull two rows
        tall, so adjacent t-tiles of size 1 overlap) and for widening by
        inner (folded) iterators.
        """
        key = (name, level, tile_k)
        cached = self._separating.get(key)
        if cached is None:
            cached = self._separates(name, level, tile_k)
            self._separating[key] = cached
        return cached

    def _separates(self, array_name: str, level: int, tile_k: int) -> bool:
        band = set(self.component.band_vars)
        node = self.component.nodes[level]
        var = node.var
        accesses = [a for _, a in self.component.accesses(array_name)]
        ndim = accesses[0].array.ndim
        inner_box = self.component.full_inner_box()
        for dim in range(ndim):
            first = accesses[0].indices[dim]
            coeff = first.coeff(var)
            if coeff == 0:
                continue
            # Outer-iterator terms are constant within one component
            # execution; they must match across accesses to cancel out.
            outer_sig = {
                v: c for v, c in first.coeffs.items()
                if v != var and v not in band and v not in inner_box
            }
            ok = True
            widen = 0
            consts = []
            for access in accesses:
                expr = access.indices[dim]
                consts.append(expr.constant)
                sig = {}
                for other, c in expr.coeffs.items():
                    if other == var:
                        if c != coeff:
                            ok = False
                    elif other in band:
                        # moves with another tiled level too: reject.
                        ok = False
                    elif other in inner_box:
                        lo, hi = inner_box[other]
                        widen = max(widen, abs(c) * (hi - lo))
                    else:
                        sig[other] = c
                if sig != outer_sig:
                    ok = False
            if not ok:
                continue
            spread = max(consts) - min(consts)
            shift = abs(coeff) * tile_k * node.S
            extent = (abs(coeff) * (tile_k - 1) * node.S
                      + spread + widen + 1)
            if shift >= extent:
                return True
        return False


# ---------------------------------------------------------------------------
# per-array planning data


@dataclass
class ArrayPlan:
    """Static per-array facts shared by all cores."""

    array: Array
    mode: str
    relevant_levels: Tuple[int, ...]      # indices into solution.levels
    bounding_shape: Tuple[int, ...]
    swap_api: str

    @property
    def bounding_bytes(self) -> int:
        total = self.array.element_size
        for extent in self.bounding_shape:
            total *= extent
        return total


@dataclass
class ChangeEvent:
    """One entry of SegmentToSwap_a(i): the range changes at *segment*."""

    segment: int          # 1-based segment index on this core
    transfer_ns: float    # T_DMA + T_BUS of the new range
    payload_bytes: int


@dataclass
class CoreSchedule:
    """Everything the pipeline evaluator needs about one core."""

    core: int
    n_segments: int
    init_api_ns: float
    exec_ns: List[float]          # index s-1 holds segment s (API included)
    mem_slot_ns: List[float]      # index s-1 holds slot s, s in 1..n+2
    dep_slot: List[int]           # per segment: latest slot it must await
    load_bytes: int = 0
    unload_bytes: int = 0
    api_ns_total: float = 0.0
    exec_ns_total: float = 0.0

    @property
    def mem_ns_total(self) -> float:
        return float(sum(self.mem_slot_ns))


@dataclass
class ComponentPlan:
    """A fully planned component: per-core schedules plus shared facts."""

    component: TilableComponent
    solution: Solution
    array_plans: Dict[str, ArrayPlan]
    cores: List[CoreSchedule]
    spm_bytes_needed: int

    @property
    def total_load_bytes(self) -> int:
        return sum(core.load_bytes for core in self.cores)

    @property
    def total_unload_bytes(self) -> int:
        return sum(core.unload_bytes for core in self.cores)

    @property
    def total_transferred_bytes(self) -> int:
        return self.total_load_bytes + self.total_unload_bytes

    @property
    def total_segments(self) -> int:
        return sum(core.n_segments for core in self.cores)


class PlanError(InfeasibleScheduleError, ValueError):
    """A solution that cannot be planned (infeasible or illegal)."""


class SegmentPlanner:
    """Builds :class:`ComponentPlan` objects for (component, solution)."""

    def __init__(self, component: TilableComponent, platform: Platform,
                 exec_model: ExecModel,
                 modes: Mapping[str, str] | None = None):
        self.component = component
        self.platform = platform
        self.exec_model = exec_model
        self.modes = dict(modes) if modes else classify_modes(component)
        self.geometry = component.geometry
        #: Tile-size vector -> :meth:`_array_plans`' (plans, SPM bytes).
        self._by_sizes: Dict[Tuple[int, ...],
                             Tuple[Dict[str, ArrayPlan], int]] = {}
        #: Platform- and model-priced memos over the shared geometry.
        self._transfer: Dict[Tuple[str, Tuple[int, ...]], float] = {}
        self._exec: Dict[Tuple[int, ...], float] = {}

    # -- public -----------------------------------------------------------

    def preflight(self, solution: Solution,
                  max_segments_per_core: Optional[int] = None,
                  segments: Optional[int] = None
                  ) -> Tuple[Dict[str, ArrayPlan], int]:
        """Feasibility gates of :meth:`plan`, without the core walks.

        Returns ``(array_plans, spm_bytes_needed)`` and raises
        :class:`PlanError` exactly when :meth:`plan` would — the hook
        batch evaluators use to separate exact infeasibility from the
        per-segment schedule construction.  *segments* is the
        solution's ``max_segments_per_core()`` when the caller already
        has it (the batch evaluator computes it for a whole batch)."""
        if max_segments_per_core is not None:
            if segments is None:
                segments = solution.max_segments_per_core()
            if segments > max_segments_per_core:
                raise PlanError(
                    f"{segments} segments/core exceeds "
                    f"the evaluation cap {max_segments_per_core}")

        array_plans, spm_needed = self._array_plans(solution)
        if spm_needed > self.platform.spm_bytes:
            raise PlanError(
                f"solution needs {spm_needed} B of SPM "
                f"(> {self.platform.spm_bytes} B)")
        self._check_write_disjointness(solution, array_plans)
        return array_plans, spm_needed

    def plan(self, solution: Solution,
             max_segments_per_core: Optional[int] = None) -> ComponentPlan:
        array_plans, spm_needed = self.preflight(
            solution, max_segments_per_core)

        # Mask-keyed caches are scoped to one solution (the remainder
        # bitmask encodes widths relative to this solution's tile sizes);
        # they are shared by all cores of the plan.
        mask_caches = ({}, {})
        cores = [
            self._plan_core(core, solution, array_plans, mask_caches)
            for core in range(solution.threads)
        ]
        return ComponentPlan(
            component=self.component,
            solution=solution,
            array_plans=array_plans,
            cores=cores,
            spm_bytes_needed=spm_needed,
        )

    # -- shared facts -----------------------------------------------------

    def _array_plans(self, solution: Solution
                     ) -> Tuple[Dict[str, ArrayPlan], int]:
        """Per-array plans and the double-buffered SPM bytes they need.

        Both depend on the tile-size vector alone, which candidate
        searches revisit constantly, so they are memoized by it."""
        sizes_key = tuple(level.K for level in solution.levels)
        entry = self._by_sizes.get(sizes_key)
        if entry is None:
            plans: Dict[str, ArrayPlan] = {}
            sizes = solution.tile_sizes
            for name, array in self.component.arrays().items():
                plans[name] = ArrayPlan(
                    array=array,
                    mode=self.modes[name],
                    relevant_levels=self.geometry.relevant_levels(
                        name, sizes),
                    bounding_shape=self.geometry.bounding_shape(name, sizes),
                    swap_api=swap_api_name(array.ndim),
                )
            entry = (plans,
                     2 * sum(p.bounding_bytes for p in plans.values()))
            self._by_sizes[sizes_key] = entry
        return entry

    def _check_write_disjointness(self, solution: Solution,
                                  plans: Mapping[str, ArrayPlan]) -> None:
        """Section 5.3.1's overlap legality: distinct tiles must touch
        disjoint written ranges (or identical ones when no relevant level
        changes).  Checked structurally via separating dimensions."""
        band = self.component.band_vars
        for name, plan in plans.items():
            if plan.mode == RO:
                continue
            relevant = set(plan.relevant_levels)
            for level_idx, level in enumerate(solution.levels):
                if level.R > 1 and level_idx not in relevant:
                    raise PlanError(
                        f"array {name} is written identically by all "
                        f"thread groups of level {level.var}")
            for level_idx in plan.relevant_levels:
                level = solution.levels[level_idx]
                if level.M == 1 and level.R == 1:
                    continue   # the level never advances
                if not self.geometry.has_separating_dim(
                        name, level_idx, level.K):
                    raise PlanError(
                        f"written array {name} has overlapping but unequal "
                        f"ranges across tiles of level {band[level_idx]}")

    # -- per-core planning ----------------------------------------------------

    def _plan_core(self, core: int, solution: Solution,
                   plans: Mapping[str, ArrayPlan],
                   mask_caches) -> CoreSchedule:
        exec_mask_cache, shape_mask_cache = mask_caches
        counts = solution.core_tile_counts(core)
        blocks = [
            level.group_tiles(group)
            for level, group in zip(
                solution.levels, solution.group_ids(core))
        ]
        n = 1
        for count in counts:
            n *= count
        if n == 0:
            return CoreSchedule(core, 0, 0.0, [], [0.0, 0.0], [], 0, 0)

        depth = len(solution.levels)
        band = [level.var for level in solution.levels]
        names = list(plans)
        # Per level, whether a given block position is the remainder tile.
        # A tile's width vector is fully determined by the bitmask of
        # levels sitting on their remainder tile, which the odometer walk
        # maintains incrementally — no per-segment width recomputation.
        remainder_bit: List[List[int]] = []
        for j, level in enumerate(solution.levels):
            flags = []
            for index in blocks[j]:
                is_rem = (index == level.M - 1
                          and level.remainder_width != level.K)
                flags.append(1 << j if is_rem else 0)
            remainder_bit.append(flags)

        # changed(a, rollover): some relevant level is at/beyond the
        # rollover and actually advances on this core.
        changed_names: List[List[str]] = []
        for roll in range(depth):
            bucket = []
            for name in names:
                relevant = plans[name].relevant_levels
                if any(r == roll or (r > roll and counts[r] > 1)
                       for r in relevant):
                    bucket.append(name)
            changed_names.append(bucket)

        exec_base: List[float] = []
        events: Dict[str, List[ChangeEvent]] = {name: [] for name in names}

        z = [0] * depth
        mask = 0
        for j in range(depth):
            mask |= remainder_bit[j][0]
        for segment in range(1, n + 1):
            if segment == 1:
                changed = names
            else:
                rollover = depth - 1
                while z[rollover] + 1 >= counts[rollover]:
                    z[rollover] = 0
                    mask = (mask & ~(1 << rollover)) | \
                        remainder_bit[rollover][0]
                    rollover -= 1
                z[rollover] += 1
                mask = (mask & ~(1 << rollover)) | \
                    remainder_bit[rollover][z[rollover]]
                changed = changed_names[rollover]
            cached = exec_mask_cache.get(mask)
            if cached is None:
                cached = self._exec_estimate(
                    self._mask_widths(mask, solution))
                exec_mask_cache[mask] = cached
            exec_base.append(cached)
            for name in changed:
                key = (name, mask)
                entry = shape_mask_cache.get(key)
                if entry is None:
                    entry = self.range_cost(
                        name, solution.tile_sizes, dict(zip(
                            band, self._mask_widths(mask, solution))))
                    shape_mask_cache[key] = entry
                events[name].append(
                    ChangeEvent(segment, entry[0], entry[1]))

        return self._assign_slots(core, n, exec_base, events, plans)

    def _mask_widths(self, mask: int, solution: Solution) -> Tuple[int, ...]:
        return tuple(
            level.remainder_width if mask & (1 << j) else level.K
            for j, level in enumerate(solution.levels))

    def _exec_estimate(self, widths: Tuple[int, ...]) -> float:
        """Execution-phase estimate for one tile of the given widths, ns."""
        cached = self._exec.get(widths)
        if cached is None:
            cached = self._exec[widths] = \
                self.exec_model.estimate(widths) * self.platform.ns_per_cycle
        return cached

    def range_cost(self, name: str, tile_sizes: Mapping[str, int],
                   widths: Mapping[str, int]) -> Tuple[float, int]:
        """(transfer_ns, bytes) of :meth:`TileGeometry.range_shape`'s
        range, priced on this planner's platform."""
        shape, nbytes = self.geometry.range_shape(name, tile_sizes, widths)
        cached = self._transfer.get((name, shape))
        if cached is None:
            array = self.geometry.program(name).array
            cached = self._transfer[name, shape] = transfer_time_ns(
                shape, array.shape, array.element_size, self.platform)
        return cached, nbytes

    # -- slot assignment (Section 3.5 rules) -----------------------------------

    def _assign_slots(self, core: int, n: int, exec_base: List[float],
                      events: Mapping[str, List[ChangeEvent]],
                      plans: Mapping[str, ArrayPlan]) -> CoreSchedule:
        platform = self.platform
        mem_slot = [0.0] * (n + 2)       # slots 1..n+2 at index slot-1
        dep_slot = [0] * n               # per segment (index s-1)
        api = [0.0] * n                  # per segment extra API time
        init_api = platform.api_cost("dispatch") + \
            platform.api_cost("end_segment")
        load_bytes = 0
        unload_bytes = 0

        for segment_idx in range(n):
            api[segment_idx] += platform.api_cost("end_segment")

        for name, plan in plans.items():
            changes = events[name]
            if not changes:
                continue
            loads = plan.mode in (RO, RW)
            unloads = plan.mode in (WO, RW)
            swap_cost = platform.api_cost(plan.swap_api)
            init_api += 2 * platform.api_cost("allocate_buffer")
            m = len(changes)

            for idx, event in enumerate(changes):
                if idx == 0:
                    slot = 1
                elif idx == 1:
                    slot = changes[1].segment
                else:
                    slot = changes[idx - 1].segment + 1
                if loads:
                    mem_slot[slot - 1] += event.transfer_ns
                    load_bytes += event.payload_bytes
                    dep_slot[event.segment - 1] = max(
                        dep_slot[event.segment - 1], slot)
                if unloads and idx >= 2:
                    # The buffer being (re)written was unloaded in the same
                    # combined op; writing may not start before it is free.
                    dep_slot[event.segment - 1] = max(
                        dep_slot[event.segment - 1],
                        changes[idx - 1].segment + 1)
                # Swap API call: first two issued in the initialisation
                # segment (around dispatch), the rest in segment c_{x-1}-1.
                if idx <= 1:
                    init_api += swap_cost
                else:
                    api[changes[idx - 1].segment - 2] += swap_cost

            if unloads:
                for idx, event in enumerate(changes):
                    if idx + 1 < m:
                        slot = changes[idx + 1].segment + 1
                    else:
                        slot = n + 2
                    mem_slot[slot - 1] += event.transfer_ns
                    unload_bytes += event.payload_bytes

            # Buffer deallocation calls.
            dealloc = platform.api_cost("deallocate_buffer")
            if m >= 2:
                api[changes[-1].segment - 2] += dealloc
                api[n - 1] += dealloc
            else:
                api[n - 1] += 2 * dealloc

        # DMA completion interrupts land on the concurrently running
        # execution phase.
        handler = platform.api_cost("DMA_int_handler")
        for slot in range(1, n + 3):
            if mem_slot[slot - 1] <= 0:
                continue
            if slot == 1:
                init_api += handler
            elif slot - 2 < n:
                api[slot - 2] += handler

        exec_ns = [base + extra for base, extra in zip(exec_base, api)]
        return CoreSchedule(
            core=core,
            n_segments=n,
            init_api_ns=init_api,
            exec_ns=exec_ns,
            mem_slot_ns=mem_slot,
            dep_slot=dep_slot,
            load_bytes=load_bytes,
            unload_bytes=unload_bytes,
            api_ns_total=init_api + sum(api),
            exec_ns_total=sum(exec_ns),
        )
