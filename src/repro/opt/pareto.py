"""Multi-objective Pareto-frontier search over the Algorithm-1 space.

Real PREM deployments do not minimize makespan alone: a schedule that is
2% slower but halves the SPM footprint, the DMA-bandwidth demand, or the
core count is often the one that ships.  This module emits, per tilable
component, the *exact* non-dominated front over four simultaneously
minimized objectives — every quantity the evaluator already computes per
candidate:

1. ``makespan_ns``       — the pipeline simulation's component makespan;
2. ``spm_bytes``         — the planner's double-buffered SPM requirement;
3. ``dma_bytes``         — total bytes moved over the shared DMA engine;
4. ``cores``             — ``prod(l_j.R)``, the cores the schedule occupies.

The search walks the same candidate space as :class:`~repro.opt.pruned.
PrunedOptimizer` (non-dominated thread groups × ``select_tile_sizes``),
but a scalar incumbent cannot prune for a front, so the bound tier is a
*vector*: each candidate gets an admissible **bound vector** — the
refined makespan lower bound, the exact SPM requirement, and the
shared-DMA byte floor (all from :class:`~repro.opt.bounds.
BoundCalculator`), plus the exact core count.

Dominance-pruning soundness (the full argument is DESIGN.md §12): a
candidate is skipped only when some *achieved* feasible vector ``a``
weakly dominates its *bound* vector ``b`` (``a <= b`` componentwise with
at least one strict coordinate).  The candidate's true vector ``t``
satisfies ``b <= t`` componentwise because every bound is admissible, so
``a`` strictly dominates ``t`` — the candidate can never join the front.
Conversely a candidate whose true vector lies on the front can never be
pruned: its pruner ``a`` would dominate the front vector too.  The front
is therefore a pure function of the candidate space — bit-identical
regardless of *which* dominated candidates happen to be pruned, i.e.
across ``jobs``, ``vectorize``, and cold/warm persistent-cache runs.

The sweep is the pruned search's walk (:func:`repro.opt.walk.walk`)
with :class:`DominanceArchive` as its acceptor: surviving candidates are
scored in doubling windows through the
:class:`~repro.opt.engine.EvaluationEngine` (worker pool, batch-exact
vector scoring, or plain serial — all bit-identical), and memo/cache
hits occupy window slots so a warm run walks the identical archive
trajectory as the cold one.

The second method, **weighted scalarization** (:func:`scalarize`),
minimizes a positive weighted sum of the front-range-normalised
objectives over the front alone.  With strictly positive weights a
dominated candidate never scores below the front point that dominates
it, so the minimum over every scored candidate is a front point; the
front is all the renderer needs (DESIGN.md §12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..loopir.component import TilableComponent
from ..schedule.makespan import (
    DEFAULT_SEGMENT_CAP,
    Deadline,
    MakespanEvaluator,
    MakespanResult,
)
from ..timing.execmodel import ExecModel
from ..timing.platform import Platform
from .bounds import BoundCalculator
from .cache import PersistentCache
from .component import ComponentOptResult
from .engine import EvaluationEngine
from .pruned import DEFAULT_PRUNED_MAX_POINTS
from .solution import Solution
from .walk import (
    BATCH_WINDOWS,
    Candidate,
    CandidateSpace,
    validate_shard,
    walk,
)

#: Objective order of every vector in this module.
OBJECTIVES: Tuple[str, ...] = (
    "makespan_ns", "spm_bytes", "dma_bytes", "cores")

#: Default scalarization weight vectors: one leaning on each objective
#: plus the balanced compromise.  Every weight is strictly positive —
#: a zero weight would let an off-front candidate tie a front member,
#: and the front alone would no longer decide the winner.
DEFAULT_WEIGHTS: Tuple[Tuple[float, float, float, float], ...] = (
    (0.85, 0.05, 0.05, 0.05),
    (0.05, 0.85, 0.05, 0.05),
    (0.05, 0.05, 0.85, 0.05),
    (0.05, 0.05, 0.05, 0.85),
    (0.25, 0.25, 0.25, 0.25),
)

#: (makespan ns, SPM bytes, DMA bytes, cores) — all minimized.
ObjectiveVector = Tuple[float, int, int, int]


def dominates_vector(a: Sequence[float], b: Sequence[float]) -> bool:
    """Weak Pareto dominance: ``a <= b`` componentwise, somewhere strict."""
    return tuple(a) != tuple(b) and all(x <= y for x, y in zip(a, b))


@dataclass(frozen=True, eq=False)
class ParetoPoint:
    """One achieved (evaluated, feasible) candidate of the sweep."""

    result: MakespanResult
    flat: Tuple[int, ...]         # flattened solution key (tie-break)
    makespan_ns: float
    spm_bytes: int
    dma_bytes: int
    cores: int

    @property
    def objectives(self) -> ObjectiveVector:
        return (self.makespan_ns, self.spm_bytes,
                self.dma_bytes, self.cores)

    @property
    def solution(self) -> Solution:
        return self.result.solution

    def describe(self) -> str:
        return self.solution.describe()


@dataclass(frozen=True, eq=False)
class ScalarizedPoint:
    """One weighted-scalarization winner, a member of the sweep front."""

    weights: Tuple[float, float, float, float]
    point: ParetoPoint
    score: float                  # normalised weighted sum at the winner


@dataclass(frozen=True, eq=False)
class ComposedPoint:
    """One point of a kernel-level front composed across components.

    Components execute one after another on the same platform, so
    makespans and DMA bytes add (scaled by each component's execution
    count) while the SPM requirement and the core count are maxima.
    ``picks`` records the chosen flattened solution key per component,
    in composition order."""

    makespan_ns: float
    spm_bytes: int
    dma_bytes: int
    cores: int
    picks: Tuple[Tuple[int, ...], ...]

    @property
    def objectives(self) -> ObjectiveVector:
        return (self.makespan_ns, self.spm_bytes,
                self.dma_bytes, self.cores)

    def describe(self) -> str:
        return " | ".join(
            "(" + ",".join(str(x) for x in pick) + ")"
            for pick in self.picks)


def pareto_front(points: Iterable[ParetoPoint]) -> Tuple[ParetoPoint, ...]:
    """The exact non-dominated subset of *points*, deterministically.

    Duplicate objective vectors keep the representative with the
    smallest flattened key; the result is sorted by ``(objectives,
    flat)``.  Sorting makes the filter one-directional: a dominator is
    componentwise ``<=`` its victim and differs somewhere, so it sorts
    strictly before it — checking each point against the already
    accepted prefix suffices."""
    by_vector: Dict[ObjectiveVector, ParetoPoint] = {}
    for point in points:
        kept = by_vector.get(point.objectives)
        if kept is None or point.flat < kept.flat:
            by_vector[point.objectives] = point
    front: List[ParetoPoint] = []
    for point in sorted(by_vector.values(),
                        key=lambda p: (p.objectives, p.flat)):
        if not any(dominates_vector(kept.objectives, point.objectives)
                   for kept in front):
            front.append(point)
    return tuple(front)


def scalarize(front: Sequence[ParetoPoint],
              weights: Sequence[float]) -> ScalarizedPoint:
    """Weighted-sum winner over *front*, ties to the smallest flat key.

    Objectives are normalised by the front's per-objective range (every
    per-objective minimum appears on the front, so the ranges — and the
    winner — are as deterministic as the front itself); a degenerate
    range falls back to an absolute offset, which preserves strictness.
    All weights must be strictly positive: that is what keeps every
    dominated candidate from scoring below its dominator, so the
    winner over the front is the winner over every scored candidate."""
    weights = tuple(float(w) for w in weights)
    if len(weights) != len(OBJECTIVES):
        raise ValueError(
            f"need {len(OBJECTIVES)} weights {OBJECTIVES}, "
            f"got {len(weights)}")
    if any(w <= 0.0 for w in weights):
        raise ValueError(
            "scalarization weights must be strictly positive "
            "(a zero weight voids the winner-on-front guarantee)")
    if not front:
        raise ValueError("cannot scalarize an empty front")
    los = [min(p.objectives[i] for p in front)
           for i in range(len(OBJECTIVES))]
    his = [max(p.objectives[i] for p in front)
           for i in range(len(OBJECTIVES))]
    spans = [hi - lo if hi > lo else 1.0 for lo, hi in zip(los, his)]

    def score(point: ParetoPoint) -> float:
        return math.fsum(
            w * (obj - lo) / span for w, obj, lo, span
            in zip(weights, point.objectives, los, spans))

    winner = min(front, key=lambda p: (score(p), p.flat))
    return ScalarizedPoint(weights, winner, score(winner))


def compose_fronts(parts: Sequence[Tuple[Sequence[ParetoPoint], int]]
                   ) -> Tuple[ComposedPoint, ...]:
    """Kernel-level front from per-component ``(front, executions)``.

    The composition operators are monotone in every objective (sums and
    maxima), so filtering each intermediate product to its non-dominated
    subset loses no final front member; tied intermediate vectors keep
    the lexicographically smallest ``picks``, which makes the composed
    front deterministic.  A component with an empty front (no feasible
    candidate) makes the whole kernel infeasible: the result is empty."""
    acc: List[ComposedPoint] = [ComposedPoint(0.0, 0, 0, 0, ())]
    for front, executions in parts:
        if not front:
            return ()
        merged: Dict[ObjectiveVector, Tuple[Tuple[int, ...], ...]] = {}
        for prefix in acc:
            for point in front:
                vector = (
                    prefix.makespan_ns + point.makespan_ns * executions,
                    max(prefix.spm_bytes, point.spm_bytes),
                    prefix.dma_bytes + point.dma_bytes * executions,
                    max(prefix.cores, point.cores),
                )
                picks = prefix.picks + (point.flat,)
                kept = merged.get(vector)
                if kept is None or picks < kept:
                    merged[vector] = picks
        survivors: List[Tuple[ObjectiveVector,
                              Tuple[Tuple[int, ...], ...]]] = []
        for vector, picks in sorted(merged.items()):
            if not any(dominates_vector(kept, vector)
                       for kept, _ in survivors):
                survivors.append((vector, picks))
        acc = [ComposedPoint(*vector, picks=picks)
               for vector, picks in survivors]
    return tuple(acc)


def kernel_front(choices) -> Tuple[ComposedPoint, ...]:
    """Composed front of a tree-optimizer result's chosen components.

    Every choice must carry a :class:`ParetoComponentResult` (the
    compiler's ``pareto`` strategy guarantees this)."""
    parts = []
    for choice in choices:
        front = getattr(choice.result, "front", None)
        if front is None:
            raise ValueError(
                f"component {choice.component.label()} was not optimized "
                f"by the pareto strategy; kernel_front needs per-"
                f"component fronts")
        parts.append((front, choice.component.executions))
    return compose_fronts(parts)


@dataclass
class ParetoComponentResult(ComponentOptResult):
    """Sweep outcome of one component.

    ``best`` is the front's makespan-optimal member (its makespan equals
    the nominal single-objective optimum, so
    :class:`~repro.opt.tree.TreeOptimizer` chain assembly composes the
    same decisions as the pruned strategy); the full trade-off surface
    lives in :attr:`front`, and :func:`scalarize` picks weighted winners
    from it."""

    front: Tuple[ParetoPoint, ...] = ()
    candidates: int = 0           # candidate points in the space
    scored: int = 0               # candidates screened into scoring windows
    dominance_pruned: int = 0     # skipped via bound-vector dominance

    @property
    def front_size(self) -> int:
        return len(self.front)

    @property
    def pruned_fraction(self) -> float:
        """Fraction of the candidate space no evaluation was paid for."""
        return self.pruned / self.candidates if self.candidates else 0.0


class ParetoOptimizer:
    """Exact multi-objective twin of :class:`~repro.opt.pruned.
    PrunedOptimizer`.

    Same candidate space, same enumeration order; instead of a scalar
    incumbent the search keeps an archive of achieved non-dominated
    objective vectors and prunes candidates whose admissible *bound
    vector* is weakly dominated by an achieved one (see the module
    docstring for why the front cannot lose a member to this).  With
    ``prune=False`` every finite-bound candidate is scored — the
    reference arm of the front-parity tests."""

    def __init__(self, component: TilableComponent, platform: Platform,
                 exec_model: ExecModel,
                 segment_cap: int = DEFAULT_SEGMENT_CAP,
                 max_points: int = DEFAULT_PRUNED_MAX_POINTS,
                 deadline: Optional[Deadline] = None,
                 jobs: int = 1, cache: Optional[PersistentCache] = None,
                 vectorize: bool = True, prune: bool = True,
                 shard_of: Optional[Tuple[int, int]] = None):
        self.component = component
        self.platform = platform
        self.exec_model = exec_model
        self.max_points = max_points
        self.jobs = jobs
        self.vectorize = vectorize
        self.prune = prune
        #: Restrict the sweep to shard *i* of *n* of the sorted list.
        #: Fronts compose by union + re-dominance (``pareto_front`` over
        #: the concatenated shard fronts equals the unsharded front),
        #: so no incumbent exchange is needed or possible here.
        self.shard_of = validate_shard(shard_of)
        self.evaluator = MakespanEvaluator(
            component, platform, exec_model, segment_cap, cache=cache,
            deadline=deadline)
        self.bounds = BoundCalculator(
            component, platform, exec_model, segment_cap,
            modes=self.evaluator.planner.modes)

    def optimize(self, cores: Optional[int] = None) -> ParetoComponentResult:
        cores = cores if cores is not None else self.platform.cores
        space = CandidateSpace(
            self.component, self.bounds, cores, self.max_points, "pareto",
            self.evaluator.check_deadline, vectorize=self.vectorize,
            shard_of=self.shard_of)
        archive = DominanceArchive(self.prune)
        with EvaluationEngine(self.evaluator, jobs=self.jobs,
                              vectorize=self.vectorize) as engine:
            scored = walk(space, engine, archive, BATCH_WINDOWS)
            front = pareto_front(archive.achieved)
            best: Optional[MakespanResult] = None
            if front:
                top = min(front, key=lambda p: (p.makespan_ns, p.flat))
                best = engine.finalize(top.result)
            metrics = engine.metrics()
        return ParetoComponentResult(
            component=self.component,
            best=best,
            assignments_tried=len(space.assignments),
            metrics=metrics,
            exec_model=self.exec_model,
            front=front,
            candidates=space.size,
            scored=scored,
            dominance_pruned=archive.dominance_pruned,
        )


class DominanceArchive:
    """Walk acceptor keeping every achieved point and the non-dominated
    archive of their objective vectors.

    A miss is pruned when its refined bound proves it infeasible, or —
    with *prune* — when an archived vector weakly dominates its bound
    vector.  No tail cut: a front has no scalar rank to sort against."""

    def __init__(self, prune: bool = True):
        self.prune = prune
        self.achieved: List[ParetoPoint] = []
        self.archive: List[ObjectiveVector] = []
        self.dominance_pruned = 0

    def cuts_tail(self, bound: float, flat: Tuple[int, ...]) -> bool:
        return False

    def screen(self, space: CandidateSpace, candidate: Candidate,
               solution: Solution) -> Optional[float]:
        vector = _bound_vector(space, candidate, solution)
        if vector is None:
            return math.inf
        if self.prune and any(dominates_vector(kept, vector)
                              for kept in self.archive):
            self.dominance_pruned += 1
            return vector[0]
        return None

    def adopt(self, result: MakespanResult, flat: Tuple[int, ...]) -> None:
        if not result.feasible:
            return
        point = ParetoPoint(
            result=result, flat=flat,
            makespan_ns=result.makespan_ns,
            spm_bytes=result.spm_bytes_needed,
            dma_bytes=result.transferred_bytes,
            cores=result.solution.threads)
        self.achieved.append(point)
        vector = point.objectives
        for kept in self.archive:
            if kept == vector or dominates_vector(kept, vector):
                return
        self.archive[:] = [kept for kept in self.archive
                           if not dominates_vector(vector, kept)]
        self.archive.append(vector)


def _bound_vector(space: CandidateSpace, candidate: Candidate,
                  solution: Solution) -> Optional[ObjectiveVector]:
    """Admissible componentwise floor on the candidate's objectives.

    Makespan is the refined (DMA-path + exact-SPM) bound; SPM is the
    planner's exact requirement (falling back to the closed-form floor
    when geometry cannot resolve); DMA bytes is the swap-event byte
    floor; the core count is exact by construction.  ``None`` means the
    refined bound proved the candidate infeasible."""
    refined = space.refine(candidate)
    if math.isinf(refined):
        return None
    _bound, _flat, sizes, ai = candidate
    bounds = space.bounds
    sizes_map = solution.tile_sizes
    spm = bounds.spm_bytes_exact(sizes_map)
    if spm is None:
        spm = bounds.spm_bytes_floor(sizes)
    dma = bounds.dma_bytes_floor(sizes, space.assignments[ai], sizes_map)
    return (refined, spm, dma, solution.threads)
