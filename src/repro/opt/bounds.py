"""Admissible makespan lower bounds for branch-and-bound search.

Every quantity here is a *lower bound on the true component makespan* of
a candidate ``(R, K)`` solution, computed in closed form from the §4.2
timing model — no :class:`~repro.prem.segments.SegmentPlanner` plan, no
pipeline simulation (the derivation lives in DESIGN.md's bound section):

- **compute path** — on every core the execution phases are serialized,
  so ``makespan >= init_api + sum_tiles exec(tile)``.  The per-tile
  estimate ``intercept + sum_j O_j * prod_{k<=j} w_k + W * prod_k w_k``
  summed over a core's tile grid factorizes exactly into per-level span
  and count products, so the sum costs O(depth) instead of a grid walk.
- **DMA path** — all memory phases of all cores share the single DMA
  engine, so ``makespan >= sum of every transfer``.  The planner's swap
  events are counted exactly (the odometer rollover arithmetic), each
  charged the cheapest canonical-range transfer it could possibly carry.
- **exact infeasibility** — the planner's own segment-cap and SPM checks,
  replicated bit for bit (cap, validity) or as a provable lower bound
  (SPM): a candidate flagged here is *guaranteed* to raise
  :class:`~repro.prem.segments.PlanError`, so skipping it cannot change
  the winner.

The bound comes in two tiers.  :meth:`BoundCalculator.quick_bound` uses
closed-form arithmetic only and is cheap enough to rank the entire
candidate space; :meth:`BoundCalculator.refine` adds the DMA path and
the exact SPM test, which need (memoized, shared) range geometry, and is
paid only for candidates that survive the quick tier.

Floating-point note: the closed forms re-associate sums the simulator
accumulates term by term, so the bounds are scaled by ``1 - 1e-9``
before use — far larger than any accumulated rounding error, far
smaller than any real pruning margin — keeping them admissible even in
exact-tie corner cases.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..loopir.component import TilableComponent
from ..prem.ranges import _stmt_guards
from ..prem.segments import RO, RW, WO, classify_modes
from ..schedule.makespan import DEFAULT_SEGMENT_CAP
from ..timing.execmodel import ExecModel
from ..timing.memory import transfer_time_ns
from ..timing.platform import Platform

#: Safety factor absorbing re-association rounding (see module docstring).
_SAFETY = 1.0 - 1e-9

#: Masks enumerated per array when searching the cheapest event transfer;
#: above this many remainder levels the DMA term falls back to zero
#: (still admissible, never reached by the corpus).
_MAX_MASK_LEVELS = 6


def flatten_key(key: Sequence[Tuple[str, int, int]]) -> Tuple[int, ...]:
    """``Solution.key()`` with the level names dropped: ``(K1, R1, K2,
    R2, ...)``.  Within one component the names are identical across
    candidates, so tuple comparison of flattened keys orders exactly
    like the full keys — the incumbent tie-break used by the search."""
    return tuple(x for _, k, r in key for x in (k, r))


def chain_lower_bound(component: TilableComponent, platform: Platform,
                      exec_model: ExecModel, cores: int) -> float:
    """Admissible per-execution makespan floor for a whole component.

    Every iteration-space tile executes on some core, so the busiest
    core carries at least ``1/cores`` of the total execution cycles and
    additionally pays dispatch plus two ``end_segment`` calls (one in
    the initialisation segment, one for its first segment).  Used by
    :class:`~repro.opt.tree.TreeOptimizer` to skip optimizing parent
    chains that provably cannot beat their children.
    """
    total = float(exec_model.work)
    for node in component.nodes:
        total *= node.N
    total += exec_model.intercept
    api = platform.api_cost("dispatch") + 2 * platform.api_cost("end_segment")
    return (api + total * platform.ns_per_cycle / max(1, cores)) * _SAFETY


class BoundCalculator:
    """Closed-form admissible bounds for one component's candidates.

    Candidates are passed positionally: ``sizes[j]`` / ``groups[j]``
    belong to ``component.nodes[j]``, exactly the order the search
    enumerates.  All per-level and per-array quantities are memoized —
    the candidate space revisits the same ``(N, K, R)`` triples and the
    same geometry sub-keys constantly.
    """

    def __init__(self, component: TilableComponent, platform: Platform,
                 exec_model: ExecModel,
                 segment_cap: int = DEFAULT_SEGMENT_CAP,
                 modes: Mapping[str, str] | None = None):
        self.component = component
        self.platform = platform
        self.exec_model = exec_model
        self.segment_cap = segment_cap
        self.modes = dict(modes) if modes else classify_modes(component)
        self.geometry = component.geometry
        self._ns = platform.ns_per_cycle
        self._init_api = platform.api_cost("dispatch") + \
            platform.api_cost("end_segment")
        self._seg_api = platform.api_cost("end_segment")
        self._nodes = list(component.nodes)
        self._node_by_var = {node.var: node for node in self._nodes}
        #: (level, K, R) -> [((tiles, span), group multiplicity)]
        self._level_opts: Dict[Tuple[int, int, int],
                               List[Tuple[Tuple[int, int], int]]] = {}
        self._spm_terms = self._build_spm_terms()
        #: (array, key-variable sizes) -> _cheapest_event's pair.
        self._cheapest: Dict[Tuple, Tuple[float, int]] = {}
        #: Per-array direction count: ops the DMA carries per swap event.
        self._dirs = {
            name: (1 if mode in (RO, RW) else 0) +
                  (1 if mode in (WO, RW) else 0)
            for name, mode in self.modes.items()
        }

    # -- tier 1: closed-form arithmetic only ------------------------------

    def quick_bound(self, sizes: Sequence[int],
                    groups: Sequence[int]) -> float:
        """Compute-path bound, or ``+inf`` for provably infeasible
        candidates (invalid parameters, segment cap, SPM floor)."""
        if self._infeasible(sizes, groups) is not None:
            return math.inf
        return self._compute_path(sizes, groups) * _SAFETY

    def exact_infeasible(self, tile_sizes: Mapping[str, int],
                         thread_groups: Mapping[str, int] | None
                         ) -> Optional[str]:
        """Reason when the candidate is *guaranteed* infeasible, else
        None: the quick tier's own test behind a mapping-keyed front
        door for the greedy optimizer (a missing tile size means the
        whole loop, a missing group count one group)."""
        thread_groups = thread_groups or {}
        return self._infeasible(
            [int(tile_sizes.get(node.var, node.N)) for node in self._nodes],
            [int(thread_groups.get(node.var, 1)) for node in self._nodes])

    def _infeasible(self, sizes: Sequence[int],
                    groups: Sequence[int]) -> Optional[str]:
        """Every check here is an exact implication of a ``Solution``
        ValueError or planner :class:`PlanError` (the SPM one through a
        provable floor), so skipping the candidate cannot change any
        optimizer decision."""
        segments = 1
        for node, k, r in zip(self._nodes, sizes, groups):
            if k < 1 or k > node.N:
                return f"tile size {k} out of range for {node.var}"
            if r < 1 or (r > 1 and not node.parallel):
                return f"invalid thread-group count {r} for {node.var}"
            m = -(-node.N // k)
            if r > m:
                return f"{r} thread groups exceed {m} tiles of {node.var}"
            segments *= -(-m // r)
        if segments > self.segment_cap:
            return (f"{segments} segments/core exceeds "
                    f"the evaluation cap {self.segment_cap}")
        floor = 2 * self._spm_floor(sizes)
        if floor > self.platform.spm_bytes:
            return (f"solution needs at least {floor} B of SPM "
                    f"(> {self.platform.spm_bytes} B)")
        return None

    def quick_bound_array(self, candidate_lists: Sequence[Sequence[int]],
                          groups: Sequence[int]) -> np.ndarray:
        """Vectorized :meth:`quick_bound` over one assignment's grid.

        *candidate_lists* holds each level's tile-size options under one
        thread-group assignment; the result is a float64 array over
        ``itertools.product(*candidate_lists)`` in enumeration order,
        elementwise bit-identical to calling :meth:`quick_bound` on each
        point.  The closed forms are evaluated once per *distinct*
        per-level value (the level-profile and dimension-extent memos are
        shared with the scalar path) and broadcast across the grid, so
        screening a whole assignment costs a handful of array passes
        instead of one Python call per candidate.
        """
        depth = len(self._nodes)
        shape = tuple(len(lst) for lst in candidate_lists)
        count = 1
        for extent in shape:
            count *= extent
        if count == 0:
            return np.empty(0, dtype=np.float64)

        def bcast(arr, j):
            view = [1] * depth
            view[j] = shape[j]
            return arr.reshape(view)

        invalid = np.zeros(shape, dtype=bool)
        segments = np.ones(shape, dtype=np.int64)
        ks_levels = []
        for j, (node, lst, r) in enumerate(
                zip(self._nodes, candidate_lists, groups)):
            ks = np.asarray(lst, dtype=np.int64)
            ks_levels.append(ks)
            if r < 1 or (r > 1 and not node.parallel):
                return np.full(count, math.inf, dtype=np.float64)
            bad = (ks < 1) | (ks > node.N)
            m = -(-node.N // np.maximum(ks, 1))
            bad |= r > m
            invalid |= bcast(bad, j)
            segments *= bcast(-(-m // r), j)
        invalid |= segments > self.segment_cap

        # SPM floor: per-dimension extent lookup tables over each
        # dimension's support subgrid (scalar extents stay memoized in
        # the shared geometry), broadcast and multiplied in integer arithmetic
        # exactly like _spm_floor.
        if self._spm_terms:
            var_axis = {node.var: j for j, node in enumerate(self._nodes)}
            floor = np.zeros(shape, dtype=np.int64)
            for name, element_size, dims in self._spm_terms:
                nbytes = np.asarray(element_size, dtype=np.int64)
                for dim, support in dims:
                    axes = [var_axis[v] for v in support]
                    sub_shape = tuple(shape[a] for a in axes)
                    lut = np.empty(sub_shape, dtype=np.int64)
                    for idx in np.ndindex(*sub_shape):
                        sizes_by_var = {
                            v: int(candidate_lists[a][i])
                            for v, a, i in zip(support, axes, idx)}
                        lut[idx] = self.geometry.first_tile_extent(
                            name, dim, sizes_by_var)
                    if axes != sorted(axes):
                        perm = sorted(range(len(axes)),
                                      key=lambda i: axes[i])
                        lut = lut.transpose(perm)
                        axes = sorted(axes)
                    view = [1] * depth
                    for a in axes:
                        view[a] = shape[a]
                    nbytes = nbytes * lut.reshape(view)
                floor = floor + nbytes
            invalid |= 2 * floor > self.platform.spm_bytes

        # Compute path: pad each level's (tiles, span) profiles to a
        # fixed slot count (at most three exist per level) and take the
        # max total over the slot cross-product, replicating
        # _compute_path's floating-point operation order so the result
        # is bitwise the serial one.
        level_cnt, level_span, level_ok = [], [], []
        for j, (node, ks, r) in enumerate(
                zip(self._nodes, ks_levels, groups)):
            opts_per_k = []
            width = 1
            for k in ks:
                k = int(k)
                if 1 <= k <= node.N:
                    opts = self._level_options(j, k, r)
                else:
                    opts = [((0, 0), r)]   # masked out via `invalid`
                opts_per_k.append(opts)
                width = max(width, len(opts))
            cnt = np.zeros((len(ks), width), dtype=np.int64)
            span = np.zeros((len(ks), width), dtype=np.int64)
            ok = np.zeros((len(ks), width), dtype=bool)
            for i, opts in enumerate(opts_per_k):
                for s, ((c, sp), _mult) in enumerate(opts):
                    cnt[i, s] = c
                    span[i, s] = sp
                    ok[i, s] = True
            level_cnt.append(cnt)
            level_span.append(span)
            level_ok.append(ok)

        model = self.exec_model
        overheads = model.overheads
        best = np.zeros(shape, dtype=np.float64)
        for combo in product(*(range(c.shape[1]) for c in level_cnt)):
            contrib = np.ones(shape, dtype=bool)
            for j, s in enumerate(combo):
                contrib &= bcast(level_ok[j][:, s], j)
            if not contrib.any():
                continue
            cnts = [bcast(level_cnt[j][:, s], j)
                    for j, s in enumerate(combo)]
            spans = [bcast(level_span[j][:, s], j)
                     for j, s in enumerate(combo)]
            suffix = [None] * (depth + 1)
            suffix[depth] = np.ones((), dtype=np.int64)
            for j in range(depth - 1, -1, -1):
                suffix[j] = suffix[j + 1] * cnts[j]
            n = suffix[0]
            contrib &= n > 0
            if not contrib.any():
                continue
            cycles = model.intercept * n
            prefix_span = np.float64(1.0)
            for j in range(depth):
                prefix_span = prefix_span * spans[j]
                overhead = overheads[j]
                if overhead:
                    cycles = cycles + (overhead * prefix_span) * suffix[j + 1]
            cycles = cycles + model.work * prefix_span
            total = self._init_api + n * self._seg_api + cycles * self._ns
            best = np.where(contrib & (total > best), total, best)

        return np.where(invalid, np.inf, best * _SAFETY).reshape(-1)

    # -- tier 2: adds shared geometry --------------------------------------

    def refine(self, quick: float, sizes: Sequence[int],
               groups: Sequence[int]) -> float:
        """Tighten *quick* with the exact SPM test and the DMA path."""
        if not math.isfinite(quick):
            return quick
        sizes_map = {
            node.var: k for node, k in zip(self._nodes, sizes)}
        try:
            spm = sum(
                self.geometry.bounding_bytes(name, sizes_map)
                for name in self.component.arrays())
        except LookupError:
            return quick              # planner would fail the same way
        if 2 * spm > self.platform.spm_bytes:
            return math.inf           # the planner's exact SPM check
        dma = self._dma_path(sizes, groups, sizes_map) * _SAFETY
        return dma if dma > quick else quick

    # -- compute path ------------------------------------------------------

    def _level_options(self, idx: int, k: int, r: int
                       ) -> List[Tuple[Tuple[int, int], int]]:
        """Distinct per-group ``(tiles, span)`` profiles of one level.

        ``tiles`` is how many level-*idx* tiles a group owns, ``span``
        the total iteration width they cover (the remainder tile is
        narrower).  At most three distinct profiles exist per level —
        full blocks, the block holding the remainder tile, and trailing
        empty blocks when ``Z * R`` overshoots ``M``."""
        key = (idx, k, r)
        opts = self._level_opts.get(key)
        if opts is None:
            node = self._nodes[idx]
            m = -(-node.N // k)
            z = -(-m // r)
            rem_w = node.N - (m - 1) * k
            tally: Dict[Tuple[int, int], int] = {}
            for g in range(r):
                start = g * z
                end = min(start + z, m)
                cnt = max(0, end - start)
                if cnt and end == m and rem_w != k:
                    span = (cnt - 1) * k + rem_w
                else:
                    span = cnt * k
                pair = (cnt, span)
                tally[pair] = tally.get(pair, 0) + 1
            opts = list(tally.items())
            self._level_opts[key] = opts
        return opts

    def _compute_path(self, sizes: Sequence[int],
                      groups: Sequence[int]) -> float:
        """Max over core profiles of ``init_api + n*seg_api + exec``.

        ``sum_tiles (intercept + sum_j O_j prod_{k<=j} w_k + W prod w)``
        over a core's tile grid factorizes: each prefix product sums to
        ``prod_{k<=j} span_k * prod_{k>j} tiles_k``.
        """
        model = self.exec_model
        overheads = model.overheads
        per_level = [
            self._level_options(j, k, r)
            for j, (k, r) in enumerate(zip(sizes, groups))
        ]
        depth = len(per_level)
        best = 0.0
        for combo in product(*per_level):
            n = 1
            for (cnt, _), _mult in combo:
                n *= cnt
            if n == 0:
                continue              # a group past the end of the level
            suffix = [1] * (depth + 1)
            for j in range(depth - 1, -1, -1):
                suffix[j] = suffix[j + 1] * combo[j][0][0]
            cycles = model.intercept * n
            prefix_span = 1.0
            for j in range(depth):
                prefix_span *= combo[j][0][1]
                overhead = overheads[j]
                if overhead:
                    cycles += overhead * prefix_span * suffix[j + 1]
            cycles += model.work * prefix_span
            total = self._init_api + n * self._seg_api + cycles * self._ns
            if total > best:
                best = total
        return best

    # -- SPM floor (tier 1) ------------------------------------------------

    def _build_spm_terms(self):
        """Per-dimension support descriptors for guard-free arrays.

        For an array none of whose accessing statements carry guards,
        the extent of each dimension of the all-first tile's hull
        (:meth:`TileGeometry.first_tile_extent`) depends only on the
        tile sizes of that dimension's supporting band iterators, and by
        hull monotonicity it is a lower bound on the planner's
        bounding-box extent.  Guarded arrays are skipped (contributing
        zero keeps the floor admissible)."""
        terms = []
        for name, array in self.component.arrays().items():
            pairs = self.component.accesses(name)
            if not pairs or any(
                    _stmt_guards(self.component, stmt) for stmt, _ in pairs):
                continue
            support = self.geometry.program(name).support
            terms.append((name, array.element_size,
                          list(enumerate(support))))
        return terms

    def _spm_floor(self, sizes: Sequence[int]) -> int:
        """Lower bound on ``sum_a bounding_bytes(a)`` for these tile
        sizes, with every per-dimension extent memoized by the tile
        sizes of that dimension's supporting band iterators."""
        if not self._spm_terms:
            return 0
        sizes_by_var = {
            node.var: k for node, k in zip(self._nodes, sizes)}
        total = 0
        for name, element_size, dims in self._spm_terms:
            nbytes = element_size
            for dim, _ in dims:
                nbytes *= self.geometry.first_tile_extent(
                    name, dim, sizes_by_var)
            total += nbytes
        return total

    # -- DMA path (tier 2) -------------------------------------------------

    def _cheapest_event(self, name: str,
                        sizes_map: Mapping[str, int]) -> Tuple[float, int]:
        """``(transfer_ns, payload_bytes)``: the cheapest transfer and,
        minimized independently (each floor is admissible on its own
        axis), the cheapest payload any swap event of *name* can carry —
        the min over every remainder-mask combination of the canonical
        range (transfer is *not* monotone in tile widths — a wider range
        can coalesce into fewer DMA lines)."""
        key_vars = self.geometry.key_vars(name)
        memo_key = (name, tuple(sizes_map[v] for v in key_vars))
        cached = self._cheapest.get(memo_key)
        if cached is not None:
            return cached
        rem_vars = []
        for var in key_vars:
            node = self._node_by_var[var]
            k = sizes_map[var]
            m = -(-node.N // k)
            rem_w = node.N - (m - 1) * k
            if rem_w != k:
                rem_vars.append((var, rem_w))
        entries = []
        if len(rem_vars) <= _MAX_MASK_LEVELS:
            array = self.geometry.program(name).array
            try:
                for choice in product((False, True), repeat=len(rem_vars)):
                    widths = dict(sizes_map)
                    for (var, rem_w), take in zip(rem_vars, choice):
                        if take:
                            widths[var] = rem_w
                    shape, nbytes = self.geometry.range_shape(
                        name, sizes_map, widths)
                    entries.append((transfer_time_ns(
                        shape, array.shape, array.element_size,
                        self.platform), nbytes))
            except LookupError:
                entries = []
        xfer = min((entry[0] for entry in entries), default=0.0)
        cached = (xfer if math.isfinite(xfer) else 0.0,
                  min((int(entry[1]) for entry in entries), default=0))
        self._cheapest[memo_key] = cached
        return cached

    def _swap_event_total(self, sizes: Sequence[int], groups: Sequence[int],
                          sizes_map: Mapping[str, int], axis: int):
        """Exact per-core swap-event counts (the planner's rollover
        rule), each event charged axis *axis* of :meth:`_cheapest_event`
        (0: transfer ns, 1: payload bytes), summed over every core."""
        depth = len(sizes)
        arrays = []
        for name in self.component.arrays():
            dirs = self._dirs[name]
            if not dirs:
                continue
            cost = self._cheapest_event(name, sizes_map)[axis]
            if cost <= 0:
                continue
            arrays.append((
                self.geometry.relevant_levels(name, sizes_map), dirs, cost))
        if not arrays:
            return 0
        per_level = [
            self._level_options(j, k, r)
            for j, (k, r) in enumerate(zip(sizes, groups))
        ]
        total = 0
        for combo in product(*per_level):
            mult = 1
            for _opt, group_count in combo:
                mult *= group_count
            cnts = [opt[0] for opt, _ in combo]
            prefix = 1
            rollovers = []
            for j in range(depth):
                nxt = prefix * cnts[j]
                rollovers.append(nxt - prefix)
                prefix = nxt
            if prefix == 0:
                continue              # empty cores swap nothing
            for relevant, dirs, cost in arrays:
                events = 1            # segment 1 loads every array
                for roll in range(depth):
                    if any(r == roll or (r > roll and cnts[r] > 1)
                           for r in relevant):
                        events += rollovers[roll]
                total += mult * events * dirs * cost
        return total

    def _dma_path(self, sizes: Sequence[int], groups: Sequence[int],
                  sizes_map: Mapping[str, int]) -> float:
        """Total DMA busy-time floor: every swap event at its cheapest
        transfer, all serialized on the single shared DMA engine."""
        return self._swap_event_total(sizes, groups, sizes_map, 0)

    # -- objective floors (multi-objective search) -------------------------

    def spm_bytes_exact(self, sizes_map: Mapping[str, int]) -> Optional[int]:
        """The double-buffered SPM requirement for these tile sizes.

        Matches the planner's ``spm_bytes_needed`` (``2 * sum`` of the
        bounding-box bytes — thread groups never change bounding boxes),
        so for the multi-objective search the SPM objective is *known*
        before any plan is paid for.  None when geometry cannot resolve
        a bounding box (the planner would reject the candidate the same
        way); callers fall back to :meth:`spm_bytes_floor`."""
        try:
            return 2 * sum(
                self.geometry.bounding_bytes(name, sizes_map)
                for name in self.component.arrays())
        except LookupError:
            return None

    def spm_bytes_floor(self, sizes: Sequence[int]) -> int:
        """Closed-form admissible floor on the double-buffered SPM
        requirement: the quick tier's interval-arithmetic hull, doubled
        the same way the planner doubles for the ping/pong buffers."""
        return 2 * self._spm_floor(sizes)

    def dma_bytes_floor(self, sizes: Sequence[int], groups: Sequence[int],
                        sizes_map: Mapping[str, int]) -> int:
        """Admissible floor on ``ComponentPlan.total_transferred_bytes``:
        the swap-event walk of :meth:`_dma_path`, each event charged the
        cheapest payload any event of its array could possibly carry.
        Pure integer arithmetic, so no safety factor is needed — there
        is no float rounding to absorb."""
        return self._swap_event_total(sizes, groups, sizes_map, 1)
