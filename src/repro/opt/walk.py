"""The one candidate walk over the Algorithm-1 space.

Every enumerated search in this package follows one rule: bound every
candidate, walk the survivors best-bound-first, prune what an admissible
bound rules out, and score the rest.  This module holds that rule once.

:class:`CandidateSpace` is the space: the non-dominated thread-group
assignments, the ``max_points`` guard, the quick-bound enumeration
(sorted by ``(bound, flat key)``), the optional ``shard_of`` round-robin
slice, and the :class:`Solution` of each candidate record.

:func:`walk` is the loop.  It collects candidates into windows that
double from ``windows[0]`` to ``windows[1]`` slots.  A memo or cache hit
occupies a slot; a miss is screened by the *acceptor* and either pruned
(its bound persisted as a bound-only cache entry) or queued for scoring.
Each window is scored by one :meth:`EvaluationEngine.evaluate_many` call
and its results are adopted, in candidate order, only at the window
boundary.  The screen-decision sequence is therefore a pure function of
the candidate list and the window schedule: identical across ``jobs``,
``vectorize`` and cold/warm cache runs.

The acceptor decides what is kept.  :class:`ScalarIncumbent` keeps the
minimum ``(makespan, flat key)`` rank and also cuts the sorted tail in
one step; the Pareto dominance archive lives with the front code in
:mod:`repro.opt.pareto`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import product
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..loopir.component import TilableComponent
from ..schedule.makespan import MakespanResult
from .bounds import BoundCalculator
from .engine import EvaluationEngine
from .exhaustive import (
    SearchSpaceTooLarge,
    assignment_candidates,
    space_size_of,
)
from .solution import Solution
from .threadgroups import generate_nondominated_thread_groups

#: Deadline poll stride for the bound-only loops: this enumeration and
#: the robust search's envelope screening.
_DEADLINE_STRIDE = 512

#: Records :class:`CandidateList` converts per step of an iteration.
_ITER_CHUNK = 1024

#: Window schedule ``(first, largest)`` of the per-candidate walk: the
#: incumbent advances after every candidate.
SERIAL_WINDOWS = (1, 1)

#: Window schedule of every batched or pooled walk.  Candidates are
#: sorted best-bound-first, so a small opening window usually lands a
#: near-optimal incumbent immediately; the largest window bounds how many
#: candidates can be scored that a fresher incumbent would have pruned.
BATCH_WINDOWS = (16, 256)

#: Candidate record: (quick bound, flat key, tile sizes, assignment idx).
Candidate = Tuple[float, Tuple[int, ...], Tuple[int, ...], int]

#: A feasible ``(makespan, flat key)`` rank.
Rank = Tuple[float, Tuple[int, ...]]


def validate_shard(shard_of: Optional[Tuple[int, int]]
                   ) -> Optional[Tuple[int, int]]:
    """Normalize/validate a ``(index, count)`` shard restriction."""
    if shard_of is None:
        return None
    try:
        index, count = int(shard_of[0]), int(shard_of[1])
    except (IndexError, TypeError, ValueError):
        raise ValueError(
            f"shard_of must be (index, count); got {shard_of!r}")
    if count < 1 or not 0 <= index < count:
        raise ValueError(
            f"shard_of must be (index, count) with 0 <= index < count; "
            f"got {shard_of!r}")
    return index, count


class CandidateList(Sequence):
    """The sorted candidate records of one space, held as arrays.

    *bounds*, *sizes* (one row of tile sizes per candidate) and *ai*
    (assignment index) are parallel arrays in ``(bound, flat key)``
    order.  A :data:`Candidate` tuple is built only when a position is
    indexed or iterated, so a walk that cuts the sorted tail early never
    pays for the records it does not visit.  A slice is another
    :class:`CandidateList` over the same assignments (the shard
    slice)."""

    __slots__ = ("bounds", "sizes", "ai", "assignments")

    def __init__(self, bounds: np.ndarray, sizes: np.ndarray,
                 ai: np.ndarray, assignments: Sequence[Tuple[int, ...]]):
        self.bounds = bounds
        self.sizes = sizes
        self.ai = ai
        self.assignments = assignments

    def __len__(self) -> int:
        return len(self.bounds)

    def __getitem__(self, pos):
        if isinstance(pos, slice):
            return CandidateList(self.bounds[pos], self.sizes[pos],
                                 self.ai[pos], self.assignments)
        return self._record(float(self.bounds[pos]),
                            tuple(self.sizes[pos].tolist()),
                            int(self.ai[pos]))

    def __iter__(self):
        # Converted a chunk at a time: a walk that stops early converts
        # little, and a full pass avoids one numpy access per field.
        for start in range(0, len(self.bounds), _ITER_CHUNK):
            stop = start + _ITER_CHUNK
            for bound, sizes, ai in zip(self.bounds[start:stop].tolist(),
                                        self.sizes[start:stop].tolist(),
                                        self.ai[start:stop].tolist()):
                yield self._record(bound, tuple(sizes), ai)

    def _record(self, bound: float, sizes: Tuple[int, ...],
                ai: int) -> Candidate:
        flat = tuple(x for k, r in zip(sizes, self.assignments[ai])
                     for x in (k, r))
        return bound, flat, sizes, ai


def enumerate_candidates(component: TilableComponent,
                         assignments: Sequence[Tuple[int, ...]],
                         bounds: BoundCalculator,
                         check: Callable[[], None],
                         vectorize: bool = True
                         ) -> Tuple[CandidateList,
                                    List[Dict[str, int]], int]:
    """Quick-bound every candidate point; sort survivors best-bound-first.

    Returns ``(candidates, groups_maps, pruned)`` where *pruned* counts
    the provably infeasible points (quick bound of +inf) that never
    entered the list: an admissible bound of infinity means the planner
    is guaranteed to reject them.  Each assignment's tile-size grid is
    bounded as one array — by :meth:`BoundCalculator.quick_bound_array`,
    or point by point through :meth:`BoundCalculator.quick_bound` when
    *vectorize* is off; the two are bitwise the same, so both give the
    same candidate list and the same pruned count.  The survivors of
    every assignment are then ordered by one ``np.lexsort`` on
    ``(bound, flat key)``, the order of sorting the record tuples."""
    depth = len(component.nodes)
    groups_maps: List[Dict[str, int]] = []
    bound_parts = [np.empty(0, dtype=np.float64)]
    size_parts = [np.empty((0, depth), dtype=np.int64)]
    ai_parts = [np.empty(0, dtype=np.int64)]
    pruned = 0
    for ai, assignment in enumerate(assignments):
        groups, candidate_lists = assignment_candidates(
            component, assignment)
        groups_maps.append(groups)
        check()
        if vectorize:
            bound_arr = bounds.quick_bound_array(candidate_lists, assignment)
        else:
            bound_arr = _scalar_bounds(bounds, candidate_lists, assignment,
                                       check)
        finite = np.flatnonzero(np.isfinite(bound_arr))
        pruned += len(bound_arr) - len(finite)
        if not len(finite):
            continue
        shape = tuple(len(lst) for lst in candidate_lists)
        multi = np.unravel_index(finite, shape)
        bound_parts.append(bound_arr[finite])
        size_parts.append(np.stack(
            [np.asarray(lst, dtype=np.int64)[axis]
             for lst, axis in zip(candidate_lists, multi)], axis=1))
        ai_parts.append(np.full(len(finite), ai, dtype=np.int64))
    bound_all = np.concatenate(bound_parts)
    sizes_all = np.concatenate(size_parts)
    ai_all = np.concatenate(ai_parts)
    groups_all = np.asarray(assignments, dtype=np.int64).reshape(
        len(assignments), depth)[ai_all]
    # The flat key interleaves (size, groups) per level; np.lexsort's
    # last key is the primary one.
    flat_columns = [column for level in range(depth)
                    for column in (sizes_all[:, level], groups_all[:, level])]
    order = np.lexsort(flat_columns[::-1] + [bound_all])
    candidates = CandidateList(bound_all[order], sizes_all[order],
                               ai_all[order], assignments)
    return candidates, groups_maps, pruned


def _scalar_bounds(bounds: BoundCalculator,
                   candidate_lists: Sequence[Sequence[int]],
                   assignment: Tuple[int, ...],
                   check: Callable[[], None]) -> np.ndarray:
    """:meth:`BoundCalculator.quick_bound` over one assignment's grid,
    in ``itertools.product`` order (the layout of
    :meth:`BoundCalculator.quick_bound_array`)."""
    out = []
    for seen, sizes in enumerate(product(*candidate_lists), 1):
        if seen % _DEADLINE_STRIDE == 0:
            check()
        out.append(bounds.quick_bound(sizes, assignment))
    return np.asarray(out, dtype=np.float64)


class CandidateSpace:
    """One component's enumerated, sorted, optionally sharded space.

    *label* names the search in the ``max_points`` guard's message.
    With ``shard_of=(i, n)`` only every n-th candidate of the globally
    sorted list is kept, starting at i: each slice is itself sorted (the
    tail cut stays valid) and the best bounds spread evenly, so every
    shard lands a competitive incumbent early.  Candidates sliced away
    belong to other shards; they are not counted as pruned, and the
    infinite-bound enumeration drops are dealt out round-robin too, so
    the shards' ``enum_pruned`` sum to the unsharded count."""

    def __init__(self, component: TilableComponent,
                 bounds: BoundCalculator, cores: int, max_points: int,
                 label: str, check: Callable[[], None],
                 vectorize: bool = True,
                 shard_of: Optional[Tuple[int, int]] = None):
        self.component = component
        self.bounds = bounds
        self.assignments = generate_nondominated_thread_groups(
            cores, component)
        self.size = space_size_of(component, self.assignments)
        if self.size > max_points:
            raise SearchSpaceTooLarge(
                f"{self.size} candidate points exceed the {label}-search "
                f"budget of {max_points}; use the heuristic (Algorithm 1)")
        self.candidates, self.groups_maps, self.enum_pruned = \
            enumerate_candidates(component, self.assignments, bounds,
                                 check, vectorize=vectorize)
        if shard_of is not None:
            index, count = shard_of
            self.candidates = self.candidates[index::count]
            # Each enumeration drop is counted by exactly one shard.
            self.enum_pruned = len(range(index, self.enum_pruned, count))
        self._vars = [node.var for node in component.nodes]

    def solution(self, candidate: Candidate) -> Solution:
        _bound, _flat, sizes, ai = candidate
        return Solution(self.component, dict(zip(self._vars, sizes)),
                        self.groups_maps[ai])

    def refine(self, candidate: Candidate) -> float:
        """The candidate's tier-2 (DMA-path + exact SPM) bound."""
        bound, _flat, sizes, ai = candidate
        return self.bounds.refine(bound, sizes, self.assignments[ai])


class ScalarIncumbent:
    """Acceptor keeping the minimum ``(makespan, flat key)`` rank.

    Prune comparisons reuse the exhaustive search's tie-break rank, and
    every bound is admissible, so nothing that could still win is ever
    discarded.  *seed* is an optional true feasible rank published by a
    shard; it can only prune more.  A result that ties the seed is this
    shard's own published winner (re-run), so it is kept while nothing
    else is."""

    def __init__(self, seed: Optional[Rank] = None):
        self.best: Optional[MakespanResult] = None
        self.rank: Optional[Rank] = seed

    def cuts_tail(self, bound: float, flat: Tuple[int, ...]) -> bool:
        return self.rank is not None and (bound, flat) >= self.rank

    def screen(self, space: CandidateSpace, candidate: Candidate,
               solution: Solution) -> Optional[float]:
        refined = space.refine(candidate)
        if math.isinf(refined) or self.cuts_tail(refined, candidate[1]):
            return refined
        return None

    def adopt(self, result: MakespanResult, flat: Tuple[int, ...]) -> None:
        if result.feasible:
            rank = (result.makespan_ns, flat)
            if self.rank is None or rank < self.rank or \
                    (self.best is None and rank == self.rank):
                self.best, self.rank = result, rank


def walk(space: CandidateSpace, engine: EvaluationEngine, acceptor,
         windows: Tuple[int, int]) -> int:
    """Walk *space* in windows of ``windows[0]`` doubling to
    ``windows[1]`` slots, screening misses with *acceptor* and scoring
    each window through *engine*; returns the number of window slots
    filled (fresh scores plus cache hits).

    *acceptor* provides ``cuts_tail(bound, flat)`` (True prunes this
    candidate and every later one), ``screen(space, candidate,
    solution)`` (the bound to persist when the candidate is pruned, else
    None) and ``adopt(result, flat)``.  Every prune — enumeration drops
    included — and every bound hit is counted on *engine*."""
    evaluator = engine.evaluator
    engine.note_pruned(space.enum_pruned)
    scored = 0
    candidates = space.candidates
    limit, largest = windows
    pos, total = 0, len(candidates)
    while pos < total:
        evaluator.check_deadline()
        #: (flat key, cached result or None, fresh solution or None)
        window: List[tuple] = []
        while pos < total and len(window) < limit:
            candidate = candidates[pos]
            bound, flat = candidate[0], candidate[1]
            if acceptor.cuts_tail(bound, flat):
                # Sorted by (bound, flat): everything from here on is at
                # or past the acceptor's rank too.
                engine.note_pruned(total - pos)
                pos = total
                break
            solution = space.solution(candidate)
            pos += 1
            hit = evaluator.peek(solution)
            if hit is not None:
                window.append((flat, hit, None))
                continue
            persisted = acceptor.screen(space, candidate, solution)
            if persisted is not None:
                engine.note_pruned()
                if evaluator.persist_bound(solution.key(), persisted):
                    engine.note_bound_hit()
                continue
            window.append((flat, None, solution))
        limit = min(limit * 2, largest)
        if not window:
            continue
        scored += len(window)
        fresh = [(solution.tile_sizes, solution.thread_groups)
                 for _flat, hit, solution in window if hit is None]
        results = iter(engine.evaluate_many(fresh) if fresh else ())
        for flat, hit, _solution in window:
            acceptor.adopt(hit if hit is not None else next(results), flat)
    return scored
