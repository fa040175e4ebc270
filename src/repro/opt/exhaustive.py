"""Exhaustive search over the Algorithm-1 candidate space.

Section 4.3 motivates the heuristic by noting that searching the whole
space "would take unacceptable time, usually more than 20 hours" for the
deep CNN component.  This module implements that exhaustive search over
exactly the same candidate space (non-dominated thread groups ×
``select_tile_sizes`` lists) so that, on *small* components, the
heuristic's optimality gap can be measured — see the optimality-gap
ablation bench.

The search size is guarded: by default it refuses spaces above
``max_points`` evaluations instead of silently running for hours.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, List, Optional, Sequence, Tuple

from ..errors import OptimizerError
from ..loopir.component import TilableComponent
from ..schedule.makespan import (
    DEFAULT_SEGMENT_CAP,
    Deadline,
    MakespanEvaluator,
    MakespanResult,
)
from ..timing.execmodel import ExecModel
from ..timing.platform import Platform
from .cache import PersistentCache
from .component import ComponentOptResult
from .engine import EvaluationEngine
from .threadgroups import generate_nondominated_thread_groups
from .tilesizes import select_tile_sizes


class SearchSpaceTooLarge(OptimizerError, RuntimeError):
    """The exhaustive space exceeds the configured evaluation budget."""


def space_size_of(component: TilableComponent,
                  assignments: Sequence[Tuple[int, ...]]) -> int:
    """Candidate points of an already-generated assignment list."""
    total = 0
    for assignment in assignments:
        points = 1
        for node, groups in zip(component.nodes, assignment):
            points *= len(select_tile_sizes(node.N, groups))
        total += points
    return total


def search_space_size(component: TilableComponent, cores: int) -> int:
    """Number of (R, K) points Algorithm 1's candidate space contains."""
    return space_size_of(
        component, generate_nondominated_thread_groups(cores, component))


def assignment_candidates(component: TilableComponent,
                          assignment: Tuple[int, ...]
                          ) -> Tuple[dict, List[List[int]]]:
    """One assignment's thread-group map and per-level tile-size lists.

    Shared by the exhaustive and the bound-driven search so both
    enumerate exactly the same candidate points in the same order."""
    groups = {
        node.var: r for node, r in zip(component.nodes, assignment)}
    candidate_lists = [
        select_tile_sizes(node.N, r)
        for node, r in zip(component.nodes, assignment)
    ]
    return groups, candidate_lists


def best_of(results: Iterable[Optional[MakespanResult]]
            ) -> Optional[MakespanResult]:
    """Deterministic winner: min ``(makespan, solution key)``.

    Independent of evaluation order, so serial and parallel runs — and
    re-runs against a warm cache — agree on ties."""
    best: Optional[MakespanResult] = None
    best_rank: Optional[tuple] = None
    for result in results:
        if result is None or not result.feasible:
            continue
        rank = (result.makespan_ns, result.solution.key())
        if best_rank is None or rank < best_rank:
            best, best_rank = result, rank
    return best


class ExhaustiveOptimizer:
    """Evaluate every candidate point and return the true optimum.

    With ``jobs > 1`` candidate evaluation fans out over the
    :class:`~repro.opt.engine.EvaluationEngine` worker pool; the
    reduction (:func:`best_of`) tie-breaks on the solution key, so
    serial and parallel runs return identical results."""

    def __init__(self, component: TilableComponent, platform: Platform,
                 exec_model: ExecModel,
                 segment_cap: int = DEFAULT_SEGMENT_CAP,
                 max_points: int = 20_000,
                 deadline: Optional[Deadline] = None,
                 jobs: int = 1, cache: Optional[PersistentCache] = None,
                 vectorize: bool = False):
        self.component = component
        self.platform = platform
        self.exec_model = exec_model
        self.max_points = max_points
        self.jobs = jobs
        #: Batch-exact scoring through the evaluation engine.  Off by
        #: default: the exhaustive search is the *reference* arm of the
        #: parity benches, whose plan-count accounting assumes one
        #: ``SegmentPlanner.plan`` per fresh candidate.
        self.vectorize = vectorize
        self.evaluator = MakespanEvaluator(
            component, platform, exec_model, segment_cap, cache=cache,
            deadline=deadline)

    def optimize(self, cores: Optional[int] = None) -> ComponentOptResult:
        cores = cores if cores is not None else self.platform.cores
        # The assignment list is generated exactly once: the space-size
        # guard and the search loop both derive from it.
        assignments = generate_nondominated_thread_groups(
            cores, self.component)
        size = space_size_of(self.component, assignments)
        if size > self.max_points:
            raise SearchSpaceTooLarge(
                f"{size} candidate points exceed the budget of "
                f"{self.max_points}; use the heuristic (Algorithm 1)")

        requests = []
        for assignment in assignments:
            groups, candidate_lists = assignment_candidates(
                self.component, assignment)
            requests.extend(
                ({node.var: k
                  for node, k in zip(self.component.nodes, sizes)}, groups)
                for sizes in product(*candidate_lists))

        with EvaluationEngine(self.evaluator, jobs=self.jobs,
                              vectorize=self.vectorize) as engine:
            best = engine.finalize(best_of(engine.evaluate_many(requests)))
            metrics = engine.metrics()
        return ComponentOptResult(
            component=self.component,
            best=best,
            assignments_tried=len(assignments),
            metrics=metrics,
            exec_model=self.exec_model,
        )
