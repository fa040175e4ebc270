"""Algorithm 1 — optimize the schedule of one tilable component.

For every non-dominated thread-group assignment, run a coordinate-descent
search over the per-level tile-size candidate lists: starting from a
(seeded-)random solution, repeatedly sweep the levels and replace each
level's tile size by the one minimising the makespan with the other levels
fixed.  The paper observes the per-level makespan function is convex in
the tile size, so ``find_minimum`` is a discrete ternary search; a full
scan is used for short candidate lists.  ``max_iter`` defaults to 3 sweeps
as in the paper.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..loopir.component import TilableComponent
from ..schedule.makespan import (
    DEFAULT_SEGMENT_CAP,
    MakespanEvaluator,
    MakespanResult,
)
from ..timing.execmodel import ExecModel
from ..timing.platform import Platform
from .cache import PersistentCache
from .engine import EngineMetrics, EvaluationEngine, counter_view
from .threadgroups import generate_nondominated_thread_groups
from .tilesizes import select_tile_sizes

#: Candidate lists at most this long are scanned exhaustively instead of
#: ternary-searched (the scan is cheap and immune to convexity violations).
FULL_SCAN_LIMIT = 8


@dataclass
class ComponentOptResult:
    """Outcome of Algorithm 1 on one component."""

    component: TilableComponent
    best: Optional[MakespanResult]
    elapsed_s: float
    assignments_tried: int
    #: The search's counters, straight from its evaluation engine.
    metrics: EngineMetrics = field(default_factory=EngineMetrics)
    #: The fitted model the search ranked candidates under; lets late
    #: consumers (gantt/report on a cache-hit winner) re-plan the best
    #: solution without re-deriving the model.
    exec_model: Optional[ExecModel] = None

    evaluations = counter_view("evaluations")
    cache_hits = counter_view("cache_hits")
    pruned = counter_view("pruned")     # discarded on an admissible bound
    bound_hits = counter_view("bound_hits")   # pruned points the cache knew
    batched = counter_view("batched")   # decided by the vector engine
    batch_fallbacks = counter_view("batch_fallbacks")   # simulator-scored

    @property
    def feasible(self) -> bool:
        return self.best is not None and self.best.feasible

    @property
    def makespan_ns(self) -> float:
        return self.best.makespan_ns if self.best else math.inf

    @property
    def total_makespan_ns(self) -> float:
        return self.best.total_makespan_ns if self.best else math.inf


class ComponentOptimizer:
    """Runs Algorithm 1 for one component on one platform."""

    def __init__(self, component: TilableComponent, platform: Platform,
                 exec_model: ExecModel, max_iter: int = 3, seed: int = 0,
                 segment_cap: int = DEFAULT_SEGMENT_CAP, restarts: int = 3,
                 deadline: float | None = None, budget_s: float = 0.0,
                 jobs: int = 1, cache: Optional[PersistentCache] = None):
        self.component = component
        self.platform = platform
        self.exec_model = exec_model
        self.max_iter = max_iter
        self.seed = seed
        self.segment_cap = segment_cap
        self.restarts = restarts
        self.jobs = jobs
        self.evaluator = MakespanEvaluator(
            component, platform, exec_model, segment_cap, cache=cache)
        if deadline is not None:
            self.evaluator.set_deadline(deadline, "heuristic", budget_s)

    # -- Algorithm 1 --------------------------------------------------------

    def optimize(self, cores: Optional[int] = None) -> ComponentOptResult:
        cores = cores if cores is not None else self.platform.cores
        rng = random.Random(self.seed)
        started = time.perf_counter()
        assignments = generate_nondominated_thread_groups(
            cores, self.component)

        best: Optional[MakespanResult] = None
        with EvaluationEngine(self.evaluator, jobs=self.jobs) as engine:
            for assignment in assignments:
                result = self._descend(engine, assignment, rng)
                if result is None:
                    continue
                if best is None or result.makespan_ns < best.makespan_ns:
                    best = result
            # A pool- or cache-computed winner carries no plan; a
            # freshly-evaluated one gets its plan re-attached so the
            # result matches a serial cold run bit for bit.
            best = engine.finalize(best)
            metrics = engine.metrics()
        return ComponentOptResult(
            component=self.component,
            best=best,
            elapsed_s=time.perf_counter() - started,
            assignments_tried=len(assignments),
            metrics=metrics,
            exec_model=self.exec_model,
        )

    def _descend(self, engine: EvaluationEngine, assignment: Sequence[int],
                 rng: random.Random) -> Optional[MakespanResult]:
        """Coordinate descent over tile sizes for one R assignment.

        Coordinate descent with per-level convex search can trap in joint
        local optima (e.g. a tiny innermost tile blocking a larger one
        elsewhere through the SPM constraint), so each assignment is
        restarted from a few independent random solutions; results are
        memoized, so repeat visits to the same point are free.
        """
        nodes = self.component.nodes
        groups = {node.var: r for node, r in zip(nodes, assignment)}
        candidates = [
            select_tile_sizes(node.N, r)
            for node, r in zip(nodes, assignment)
        ]

        best_result: Optional[MakespanResult] = None
        for _ in range(max(1, self.restarts)):
            current = [rng.choice(options) for options in candidates]
            for _ in range(self.max_iter):
                for level, options in enumerate(candidates):
                    best_k, result = self._find_minimum(
                        engine, current, level, options, groups)
                    current[level] = best_k
                    if result is not None and result.feasible and (
                            best_result is None
                            or result.makespan_ns <
                            best_result.makespan_ns):
                        best_result = result
            final = self._evaluate(current, groups)
            if final.feasible and (
                    best_result is None
                    or final.makespan_ns < best_result.makespan_ns):
                best_result = final
        return best_result

    def _find_minimum(self, engine: EvaluationEngine, current: List[int],
                      level: int, options: Sequence[int],
                      groups: Dict[str, int]
                      ) -> Tuple[int, Optional[MakespanResult]]:
        """Discrete ternary search (full scan for short lists).

        Every scan goes through *engine* as one batch — the pool's when
        ``jobs > 1``.  Ties resolve to the lowest index, so the chosen
        tile size and the evaluation count match a probe-by-probe scan.
        """
        def probe(index: int) -> Dict[str, int]:
            sizes = list(current)
            sizes[level] = options[index]
            return {node.var: k
                    for node, k in zip(self.component.nodes, sizes)}

        def scan(lo: int, hi: int) -> int:
            results = engine.evaluate_many(
                [(probe(index), groups) for index in range(lo, hi + 1)])
            return lo + min(range(len(results)),
                            key=lambda i: (results[i].makespan_ns, i))

        def value(index: int) -> float:
            return self.evaluator.evaluate_params(
                probe(index), groups).makespan_ns

        lo, hi = 0, len(options) - 1
        if len(options) > FULL_SCAN_LIMIT:
            while hi - lo > 2:
                third = (hi - lo) // 3
                m1, m2 = lo + third, hi - third
                v1, v2 = value(m1), value(m2)
                if math.isinf(v1) and math.isinf(v2):
                    # Flat infeasible plateau: convexity gives no gradient
                    # (SPM overflow at large K, segment cap at tiny K), so
                    # fall back to scanning the remaining window.
                    break
                if v1 < v2:
                    hi = m2 - 1
                else:
                    lo = m1 + 1
        best_index = scan(lo, hi)

        result = self.evaluator.evaluate_params(probe(best_index), groups)
        if not math.isfinite(result.makespan_ns):
            return options[best_index], None
        return options[best_index], result

    def _evaluate(self, tile_sizes: List[int],
                  groups: Dict[str, int]) -> MakespanResult:
        sizes = {
            node.var: k
            for node, k in zip(self.component.nodes, tile_sizes)
        }
        return self.evaluator.evaluate_params(sizes, groups)
