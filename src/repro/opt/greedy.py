"""Greedy PREM compilation baseline (Section 6.2, approach of [29]).

The greedy rule: find the *outermost* loop level of the component that can
be tiled such that the resulting segments fit in the SPM, and tile only at
that level with the largest allowed tile size.  Levels above the tiled one
iterate one iteration per segment (K = 1) and, where the parallelization
attribute allows it, their iterations are spread across the cores,
assigning parallelism outermost-first.  Levels below the tiled one stay
untiled (K = N).
"""

from __future__ import annotations

from typing import Dict, Optional

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
from .engine import EngineMetrics
from .tilesizes import select_tile_sizes


class GreedyOptimizer:
    """Greedy single-level tiling with maximal fitting tile size."""

    def __init__(self, component: TilableComponent, platform: Platform,
                 exec_model: ExecModel,
                 segment_cap: int = DEFAULT_SEGMENT_CAP,
                 deadline: Optional[Deadline] = None,
                 cache: Optional[PersistentCache] = None):
        self.component = component
        self.platform = platform
        self.exec_model = exec_model
        self.evaluator = MakespanEvaluator(
            component, platform, exec_model, segment_cap, cache=cache,
            deadline=deadline)
        self.bounds = BoundCalculator(
            component, platform, exec_model, segment_cap,
            modes=self.evaluator.planner.modes)
        self._pruned = 0

    def optimize(self, cores: Optional[int] = None) -> ComponentOptResult:
        cores = cores if cores is not None else self.platform.cores
        self._pruned = 0
        best: Optional[MakespanResult] = None
        nodes = self.component.nodes

        for tiled_level in range(len(nodes)):
            groups = self._assign_parallelism(tiled_level, cores)
            max_k = self._largest_fitting_k(tiled_level, groups)
            if max_k is None:
                continue
            sizes = self._tile_sizes(tiled_level, max_k)
            result = self.evaluator.evaluate_params(sizes, groups)
            if result.feasible:
                best = result
                break

        evaluator = self.evaluator
        return ComponentOptResult(
            component=self.component,
            best=best,
            assignments_tried=1,
            metrics=EngineMetrics(
                evaluations=evaluator.evaluations,
                memo_hits=evaluator.memo_hits,
                cache_hits=evaluator.cache_hits,
                pruned=self._pruned),
            exec_model=self.exec_model,
        )

    # -- helpers ---------------------------------------------------------

    def _tile_sizes(self, tiled_level: int, k: int) -> Dict[str, int]:
        sizes = {}
        for index, node in enumerate(self.component.nodes):
            if index < tiled_level:
                sizes[node.var] = 1
            elif index == tiled_level:
                sizes[node.var] = k
            else:
                sizes[node.var] = node.N
        return sizes

    def _assign_parallelism(self, tiled_level: int,
                            cores: int) -> Dict[str, int]:
        """Outermost-first parallelization of levels at/above the tiled one."""
        groups: Dict[str, int] = {}
        remaining = cores
        for index, node in enumerate(self.component.nodes):
            if index > tiled_level or not node.parallel or remaining <= 1:
                groups[node.var] = 1
                continue
            r = min(remaining, node.N)
            groups[node.var] = r
            remaining //= r
        return groups

    def _largest_fitting_k(self, tiled_level: int,
                           groups: Dict[str, int]) -> Optional[int]:
        """Largest K whose plan fits the SPM.

        Feasibility is *not* monotone in K: SPM pressure grows with K
        (infeasible above some k_max) but the per-core segment count
        shrinks with K, so the segment cap can make *tiny* K infeasible
        too — the feasible region is an interval ``[k_min, k_max]``.
        When ``fits(1)`` holds the lower boundary is trivial and a
        binary search finds ``k_max``; when it fails the monotone
        precondition is gone, so probe the candidate-size list from the
        largest size downwards instead of giving up on the level."""
        node = self.component.nodes[tiled_level]

        def fits(k: int) -> bool:
            sizes = self._tile_sizes(tiled_level, k)
            # Exact-implication precheck: every reason the bound tier can
            # give is a condition the evaluator is guaranteed to reject
            # too, so skipping the plan cannot change any greedy decision.
            if self.bounds.exact_infeasible(sizes, groups) is not None:
                self._pruned += 1
                return False
            return self.evaluator.evaluate_params(sizes, groups).feasible

        lo = 1
        if not fits(lo):
            groups_here = groups.get(node.var, 1)
            candidates = set(select_tile_sizes(node.N, groups_here))
            candidates.add(node.N)
            for k in sorted(candidates, reverse=True):
                if k > 1 and fits(k):
                    return k
            return None
        hi = node.N
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if fits(mid):
                lo = mid
            else:
                hi = mid - 1
        return lo
