"""Component makespan evaluation: plan -> pipeline -> result.

This is the ``makespan((l.R...), (l.K...))`` function of Algorithm 1: it
plans the PREM segment schedule for one optimization solution and returns
its length, or infinity when the solution is infeasible (SPM overflow,
overlap-illegal written ranges, or past the segment-count evaluation cap —
tiny tiles are dominated by per-segment overhead long before that cap, so
the search simply moves away from them).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from ..errors import OptimizerTimeout
from ..loopir.component import TilableComponent
from ..opt.cache import PersistentCache, context_fingerprint, solution_digest
from ..opt.solution import Solution
from ..prem.segments import ComponentPlan, PlanError, SegmentPlanner
from ..timing.execmodel import ExecModel
from ..timing.platform import Platform
from .pipeline import PipelineResult, evaluate_pipeline

#: Solutions needing more segments per core than this evaluate to +inf.
DEFAULT_SEGMENT_CAP = 8192


@dataclass(frozen=True)
class Deadline:
    """One search's wall-clock budget, built once per compile.

    *at* is a ``time.perf_counter()`` instant: CLOCK_MONOTONIC on Linux
    and therefore comparable across a fork, so pool workers check the
    very value their parent armed.  *stage* and *budget_s* only name
    the :class:`OptimizerTimeout` a late check raises."""

    stage: str
    budget_s: float
    at: float

    def error(self) -> OptimizerTimeout:
        return OptimizerTimeout(self.stage, self.budget_s)

    def check(self) -> None:
        """Raise :meth:`error` once the deadline has passed."""
        if time.perf_counter() > self.at:
            raise self.error()


@dataclass
class MakespanResult:
    """Outcome of evaluating one solution for one component execution."""

    component: TilableComponent
    solution: Solution
    makespan_ns: float
    feasible: bool
    reason: str = ""
    plan: Optional[ComponentPlan] = None
    pipeline: Optional[PipelineResult] = None
    #: True when the outcome came out of the persistent cache (no plan
    #: was constructed this run); the byte totals below then carry the
    #: cached values a live plan would have reported.
    from_cache: bool = False
    transferred_bytes_hint: int = 0
    spm_bytes_hint: int = 0

    @property
    def total_makespan_ns(self) -> float:
        """Makespan over all ``first(L).I`` executions of the component."""
        return self.makespan_ns * self.component.executions

    @property
    def transferred_bytes(self) -> int:
        if self.plan is not None:
            return self.plan.total_transferred_bytes
        return self.transferred_bytes_hint

    @property
    def spm_bytes_needed(self) -> int:
        if self.plan is not None:
            return self.plan.spm_bytes_needed
        return self.spm_bytes_hint


class MakespanEvaluator:
    """Caches planning state so Algorithm 1 can probe many solutions."""

    def __init__(self, component: TilableComponent, platform: Platform,
                 exec_model: ExecModel,
                 segment_cap: int = DEFAULT_SEGMENT_CAP,
                 modes: Mapping[str, str] | None = None,
                 cache: Optional[PersistentCache] = None,
                 scenario: Optional[str] = None,
                 deadline: Optional[Deadline] = None):
        self.component = component
        self.platform = platform
        self.exec_model = exec_model
        self.segment_cap = segment_cap
        self.modes = dict(modes) if modes else None
        #: Timing-scenario digest when platform/model carry Monte-Carlo
        #: perturbations; folded into persistent-cache fingerprints.
        self.scenario = scenario
        self.planner = SegmentPlanner(component, platform, exec_model, modes)
        self._cache: Dict[tuple, MakespanResult] = {}
        self.evaluations = 0
        self.memo_hits = 0
        self.cache_hits = 0        # persistent-cache hits
        #: Every *fresh* evaluation checks it first — the hook that
        #: bounds each search; cache hits stay free of the check.
        self.deadline = deadline
        self.cache: Optional[PersistentCache] = None
        self._context_hash: Optional[str] = None
        if cache is not None:
            self.set_cache(cache)

    def set_cache(self, cache: Optional[PersistentCache]) -> None:
        """Attach (or detach) a persistent cross-run result cache."""
        self.cache = cache
        if cache is not None:
            self._context_hash = context_fingerprint(
                self.component, self.platform, self.exec_model,
                self.segment_cap, self.modes, scenario=self.scenario)
        else:
            self._context_hash = None

    @property
    def context_hash(self) -> Optional[str]:
        """The persistent-cache context fingerprint (None when no cache
        is attached) — the shard protocol's component/space identity."""
        return self._context_hash

    def _digest(self, key: tuple) -> str:
        assert self._context_hash is not None
        return solution_digest(self._context_hash, key)

    def check_deadline(self) -> None:
        """Raise :class:`OptimizerTimeout` once the deadline passed."""
        if self.deadline is not None:
            self.deadline.check()

    def peek(self, solution: Solution) -> Optional[MakespanResult]:
        """Cached result for *solution* without planning: the in-memory
        memo first, then the persistent cache.  Returns None on a miss;
        never counts an evaluation and never checks the deadline."""
        key = solution.key()
        cached = self._cache.get(key)
        if cached is not None:
            self.memo_hits += 1
            return cached
        if self.cache is not None:
            entry = self.cache.get_result(self._digest(key))
            if entry is not None:
                result = MakespanResult(
                    component=self.component,
                    solution=solution,
                    makespan_ns=PersistentCache.makespan_of(entry),
                    feasible=bool(entry.get("f")),
                    reason=entry.get("r", ""),
                    from_cache=True,
                    transferred_bytes_hint=int(entry.get("xfer", 0)),
                    spm_bytes_hint=int(entry.get("spm", 0)),
                )
                self._cache[key] = result
                self.cache_hits += 1
                return result
        return None

    def _persist(self, key: tuple, result: MakespanResult) -> None:
        if self.cache is not None:
            self.cache.put(
                self._digest(key),
                makespan_ns=result.makespan_ns,
                feasible=result.feasible,
                reason=result.reason,
                spm_bytes=result.spm_bytes_needed,
                transferred_bytes=result.transferred_bytes,
            )

    def persist_bound(self, key: tuple, bound_ns: float) -> bool:
        """Record a pruned candidate's admissible bound in the persistent
        cache.  Returns True when the digest was already present (a
        *bound hit*: this candidate was pruned — or evaluated — by an
        earlier run too); False when the entry is new or no cache is
        attached."""
        if self.cache is None:
            return False
        return not self.cache.put_bound(self._digest(key), bound_ns)

    def evaluate(self, solution: Solution) -> MakespanResult:
        key = solution.key()
        cached = self.peek(solution)
        if cached is not None:
            return cached
        self.check_deadline()
        self.evaluations += 1
        try:
            plan = self.planner.plan(solution, self.segment_cap)
        except PlanError as error:
            result = MakespanResult(
                component=self.component,
                solution=solution,
                makespan_ns=math.inf,
                feasible=False,
                reason=str(error),
            )
            self._cache[key] = result
            self._persist(key, result)
            return result
        pipeline = evaluate_pipeline(plan.cores)
        result = MakespanResult(
            component=self.component,
            solution=solution,
            makespan_ns=pipeline.makespan_ns,
            feasible=True,
            plan=plan,
            pipeline=pipeline,
        )
        self._cache[key] = result
        self._persist(key, result)
        return result

    def record(self, solution: Solution, makespan_ns: float,
               feasible: bool, reason: str = "", spm_bytes: int = 0,
               transferred_bytes: int = 0) -> MakespanResult:
        """Adopt an outcome scored elsewhere — by a worker process or by
        the in-process batch evaluator.

        The result enters the memo and the persistent cache and counts
        as one evaluation, exactly as if this evaluator had planned it,
        so pooled, batched and per-candidate scoring report the same
        counters."""
        result = MakespanResult(
            component=self.component,
            solution=solution,
            makespan_ns=makespan_ns,
            feasible=feasible,
            reason=reason,
            transferred_bytes_hint=int(transferred_bytes),
            spm_bytes_hint=int(spm_bytes),
        )
        self.evaluations += 1
        key = solution.key()
        self._cache[key] = result
        self._persist(key, result)
        return result

    def attach_plan(self, result: MakespanResult) -> MakespanResult:
        """Re-plan a plan-less feasible result (a pool or cache winner).

        Does not count as an evaluation: the makespan was already
        computed (and paid for) once.  The re-planned result replaces
        the memo entry so later lookups see the full plan."""
        if result.plan is not None or not result.feasible:
            return result
        plan = self.planner.plan(result.solution, self.segment_cap)
        pipeline = evaluate_pipeline(plan.cores)
        replanned = MakespanResult(
            component=self.component,
            solution=result.solution,
            makespan_ns=pipeline.makespan_ns,
            feasible=True,
            plan=plan,
            pipeline=pipeline,
        )
        self._cache[result.solution.key()] = replanned
        return replanned

    @staticmethod
    def invalid_key(tile_sizes: Mapping[str, int],
                    thread_groups: Mapping[str, int] | None) -> tuple:
        """Memo key for parameter sets that fail Solution construction."""
        return ("invalid",
                tuple(sorted(tile_sizes.items())),
                tuple(sorted((thread_groups or {}).items())))

    def evaluate_params(self, tile_sizes: Mapping[str, int],
                        thread_groups: Mapping[str, int] | None = None
                        ) -> MakespanResult:
        """Convenience wrapper building the Solution object.

        Parameter sets that fail ``Solution`` construction (tile size
        out of range, too many thread groups, ...) are cached and
        counted like any other evaluation, so repeated invalid probes
        are free and the evaluation counts reported by the Tables
        6.2/6.3 bench reflect every candidate actually probed."""
        try:
            solution = Solution(self.component, tile_sizes, thread_groups)
        except ValueError as error:
            key = self.invalid_key(tile_sizes, thread_groups)
            cached = self._cache.get(key)
            if cached is not None:
                self.memo_hits += 1
                return cached
            result = MakespanResult(
                component=self.component,
                solution=None,            # type: ignore[arg-type]
                makespan_ns=math.inf,
                feasible=False,
                reason=str(error),
            )
            self.evaluations += 1
            self._cache[key] = result
            return result
        return self.evaluate(solution)
