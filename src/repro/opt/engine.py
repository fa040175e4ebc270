"""The candidate-evaluation engine: one scoring path, inline or pooled.

Every optimizer in this package boils down to probing many ``(R, K)``
candidates; Section 4.3 motivates the heuristic precisely because that
probing is the cost that "would take unacceptable time" at scale.
:meth:`EvaluationEngine.evaluate_many` is the one way in, and it keeps
the serial semantics bit for bit at any ``jobs``:

* the parent evaluator stays authoritative — invalid probes, memo and
  persistent-cache hits and in-batch duplicates are resolved in the
  parent *before* scoring, and every fresh outcome is adopted back
  exactly once, so the evaluation counts match a serial run regardless
  of worker scheduling;
* the fresh solutions go to :func:`score`, the one routine that picks
  batch-exact scoring (:meth:`BatchEvaluator.evaluate_batch`) or
  per-candidate scoring (:meth:`MakespanEvaluator.evaluate`).  A serial
  engine runs it inline; each pool worker runs it on its task, reduces
  the results to plain values and ships them back with a timeout
  marker, and the parent adopts them through
  :meth:`MakespanEvaluator.record`;
* workers receive the component / platform / exec-model once, at pool
  start (the pool uses the ``fork`` start method, so the unpicklable
  statement compute closures are inherited, not serialized); task
  payloads are just tile-size/thread-group dicts.

All counters live in one :class:`EngineMetrics` record, which every
optimizer hands on as ``ComponentOptResult.metrics``.  On platforms
without ``fork`` (or with ``jobs <= 1``) the engine evaluates inline —
same results, same counts, one process.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import OptimizerTimeout
from ..schedule.makespan import MakespanEvaluator, MakespanResult
from .solution import Solution
from .vectorized import BatchEvaluator

#: One evaluation request: (tile_sizes, thread_groups or None).
Request = Tuple[Mapping[str, int], Optional[Mapping[str, int]]]

#: Candidates per worker-side vector batch: big enough to amortize the
#: tensor setup, small enough that a deadline still fires promptly.
_WORKER_SUBBATCH = 48

#: Seconds a closing engine waits for workers to drain before falling
#: back to terminate().  Workers only ever hold short tasks (one chunk),
#: so the graceful path resolves in milliseconds; the fallback exists
#: for wedged workers only.
_CLOSE_GRACE_S = 5.0


@dataclass
class EngineMetrics:
    """The counters of one search, from the engine to the result."""

    jobs: int = 1
    evaluations: int = 0          # fresh plans (serial-equivalent count)
    memo_hits: int = 0
    cache_hits: int = 0           # persistent-cache hits
    invalid: int = 0
    dispatched: int = 0           # candidates sent to workers
    chunks: int = 0
    elapsed_s: float = 0.0        # wall-clock inside evaluate calls
    busy_s: float = 0.0           # summed worker compute time
    pruned: int = 0               # candidates discarded on a bound
    bound_hits: int = 0           # pruned candidates already in the cache
    batched: int = 0              # candidates decided by the vector engine
    batch_fallbacks: int = 0      # batch candidates simulator-scored

    @property
    def probes(self) -> int:
        return self.evaluations + self.memo_hits + self.cache_hits

    @property
    def evaluations_per_s(self) -> float:
        return self.evaluations / self.elapsed_s if self.elapsed_s else 0.0

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.probes if self.probes else 0.0

    @property
    def worker_utilization(self) -> float:
        """Fraction of the pool's capacity spent computing."""
        if self.jobs <= 1 or self.elapsed_s <= 0.0:
            return 1.0 if self.busy_s else 0.0
        return min(1.0, self.busy_s / (self.elapsed_s * self.jobs))

    def merge(self, other: "EngineMetrics") -> "EngineMetrics":
        """Counter-summing combine for the shard/scenario merge paths.

        Every additive counter — evaluations, hits, ``pruned``,
        ``bound_hits``, ``batched``, ``batch_fallbacks`` — is *summed*,
        never last-writer-wins, so an aggregate over several engines
        (one per shard worker, one per timing scenario) reports the
        work all of them did.  ``jobs`` takes the widest pool; derived
        rates recompute from the summed raw counters.  Only merge
        metrics of engines with *distinct* evaluators: two snapshots of
        one evaluator would double-count its cumulative counters."""
        return EngineMetrics(
            jobs=max(self.jobs, other.jobs),
            evaluations=self.evaluations + other.evaluations,
            memo_hits=self.memo_hits + other.memo_hits,
            cache_hits=self.cache_hits + other.cache_hits,
            invalid=self.invalid + other.invalid,
            dispatched=self.dispatched + other.dispatched,
            chunks=self.chunks + other.chunks,
            elapsed_s=self.elapsed_s + other.elapsed_s,
            busy_s=self.busy_s + other.busy_s,
            pruned=self.pruned + other.pruned,
            bound_hits=self.bound_hits + other.bound_hits,
            batched=self.batched + other.batched,
            batch_fallbacks=self.batch_fallbacks + other.batch_fallbacks,
        )

    def __add__(self, other: "EngineMetrics") -> "EngineMetrics":
        if not isinstance(other, EngineMetrics):
            return NotImplemented
        return self.merge(other)

    def __radd__(self, other) -> "EngineMetrics":
        if other == 0:          # lets sum(list_of_metrics) start from 0
            return self
        return NotImplemented


def counter_view(name: str) -> property:
    """A read-only result attribute that reads ``metrics.<name>``."""
    return property(lambda self: getattr(self.metrics, name),
                    doc=f"``metrics.{name}``")


def score(evaluator: MakespanEvaluator, batch: Optional[BatchEvaluator],
          solutions: Sequence[Solution], metrics: EngineMetrics,
          step: Optional[int] = None
          ) -> Tuple[List[MakespanResult], Optional[OptimizerTimeout]]:
    """Score fresh *solutions*: the engine's one scoring routine.

    With *batch*, the solutions go through :meth:`BatchEvaluator.
    evaluate_batch` in slices of *step* (all at once when None), each
    slice preceded by a deadline check, and the vector/simulator routing
    is counted on *metrics*; without, each solution goes through
    :meth:`MakespanEvaluator.evaluate`.  Returns the results completed
    before any timeout — aligned with a prefix of *solutions* — and the
    timeout, so a caller can adopt the finished work before raising."""
    results: List[MakespanResult] = []
    try:
        if batch is None:
            for solution in solutions:
                results.append(evaluator.evaluate(solution))
        else:
            step = step or max(1, len(solutions))
            for start in range(0, len(solutions), step):
                evaluator.check_deadline()
                scored = batch.evaluate_batch(solutions[start:start + step])
                exact = sum(batch.exactness_mask)
                metrics.batched += exact
                metrics.batch_fallbacks += len(scored) - exact
                results.extend(scored)
    except OptimizerTimeout as timeout:
        return results, timeout
    return results, None


# ---------------------------------------------------------------------------
# worker side

_WORKER: Dict[str, object] = {}


def _init_worker(component, platform, exec_model, segment_cap, modes,
                 deadline, stage, budget_s, vectorize) -> None:
    """Pool initializer: build this process's evaluator once.

    Under the fork start method the arguments are inherited by memory
    copy, so the component's compute closures never need pickling.
    ``perf_counter`` is CLOCK_MONOTONIC on Linux and therefore
    comparable across the fork, which keeps the parent's deadline
    meaningful inside workers."""
    evaluator = MakespanEvaluator(
        component, platform, exec_model, segment_cap, modes)
    if deadline is not None:
        evaluator.set_deadline(deadline, stage, budget_s)
    _WORKER["evaluator"] = evaluator
    _WORKER["batch"] = BatchEvaluator(evaluator) if vectorize else None


def _score_task(requests: Sequence[Request]):
    """Run :func:`score` on one task; ship plain values back.

    Returns ``(outcomes, metrics, timeout)``: one ``(makespan, feasible,
    reason, spm bytes, transferred bytes)`` tuple per finished solution,
    the task's busy time and batch routing, and ``(stage, budget_s)``
    when the deadline fired — :class:`OptimizerTimeout`'s two-argument
    constructor does not survive pickling across the pool."""
    started = time.perf_counter()
    evaluator = _WORKER["evaluator"]
    solutions = [Solution(evaluator.component, tile_sizes, thread_groups)
                 for tile_sizes, thread_groups in requests]
    metrics = EngineMetrics()
    results, timeout = score(evaluator, _WORKER["batch"], solutions,
                             metrics, _WORKER_SUBBATCH)
    metrics.busy_s = time.perf_counter() - started
    outcomes = [(r.makespan_ns, r.feasible, r.reason, r.spm_bytes_needed,
                 r.transferred_bytes) for r in results]
    marker = None if timeout is None else (timeout.stage, timeout.budget_s)
    return outcomes, metrics, marker


# ---------------------------------------------------------------------------
# parent side


def effective_jobs(jobs: Optional[int]) -> int:
    """Clamp a jobs request to something the host can actually run."""
    if not jobs or jobs <= 1:
        return 1
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1        # spawn cannot ship compute closures; stay serial
    return max(1, min(jobs, os.cpu_count() or 1))


class EvaluationEngine:
    """Score candidate probes inline or over a worker pool, identically.

    The engine wraps an existing :class:`MakespanEvaluator` (sharing its
    memo, persistent cache, deadline, and evaluation counter) so it can
    be dropped into any optimizer without changing its accounting."""

    def __init__(self, evaluator: MakespanEvaluator, jobs: int = 1,
                 vectorize: bool = False):
        self.evaluator = evaluator
        self.jobs = effective_jobs(jobs)
        self.vectorize = vectorize
        self._metrics = EngineMetrics(jobs=self.jobs)
        self._pool = None
        self._batch = BatchEvaluator(evaluator) \
            if vectorize and not self.parallel else None

    # -- lifecycle --------------------------------------------------------

    @property
    def parallel(self) -> bool:
        return self.jobs > 1

    def _ensure_pool(self):
        if self._pool is None:
            context = multiprocessing.get_context("fork")
            evaluator = self.evaluator
            self._pool = context.Pool(
                self.jobs,
                initializer=_init_worker,
                initargs=(evaluator.component, evaluator.platform,
                          evaluator.exec_model, evaluator.segment_cap,
                          evaluator.modes, evaluator.deadline,
                          evaluator.stage, evaluator.budget_s,
                          self.vectorize),
            )
        return self._pool

    def close(self) -> None:
        """Shut the pool down without corrupting the shared cache.

        ``terminate()`` kills workers at an arbitrary bytecode, which
        can land mid-append to the persistent cache's JSONL log and
        leave a torn line for every later run to skip over.  Workers
        are drained gracefully instead — ``close()`` lets in-flight
        tasks finish their appends, ``join()`` reaps them — with
        ``terminate()`` kept only as a bounded-wait fallback for a
        wedged worker."""
        if self._pool is None:
            return
        pool, self._pool = self._pool, None
        pool.close()
        waiter = threading.Thread(target=pool.join, daemon=True)
        waiter.start()
        waiter.join(_CLOSE_GRACE_S)
        if waiter.is_alive():
            pool.terminate()
            waiter.join(1.0)

    def __enter__(self) -> "EvaluationEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    # -- evaluation -------------------------------------------------------

    def evaluate_many(self, requests: Sequence[Request]
                      ) -> List[MakespanResult]:
        """Evaluate *requests*; results align with the input.

        Invalid, cached and duplicate requests are resolved here; only
        genuinely fresh solutions are scored.  A timeout raises
        :class:`OptimizerTimeout` after every outcome finished before
        the deadline has been adopted."""
        started = time.perf_counter()
        evaluator = self.evaluator
        results: List[Optional[MakespanResult]] = [None] * len(requests)
        fresh: Dict[tuple, List[int]] = {}
        solutions: List[Solution] = []
        for index, (tile_sizes, thread_groups) in enumerate(requests):
            try:
                solution = Solution(
                    evaluator.component, tile_sizes, thread_groups)
            except ValueError:
                self._metrics.invalid += 1
                results[index] = evaluator.evaluate_params(
                    tile_sizes, thread_groups)
                continue
            hit = evaluator.peek(solution)
            if hit is not None:
                results[index] = hit
                continue
            places = fresh.setdefault(solution.key(), [])
            if not places:
                solutions.append(solution)
            places.append(index)

        if solutions:
            evaluator.check_deadline()
            if self.parallel:
                scored, timeout = self._dispatch(solutions)
            else:
                scored, timeout = score(evaluator, self._batch, solutions,
                                        self._metrics)
            for solution, result in zip(solutions, scored):
                if result is not None:
                    for index in fresh[solution.key()]:
                        results[index] = result
            if timeout is not None:
                raise timeout
        self._metrics.elapsed_s += time.perf_counter() - started
        return results                                   # type: ignore

    def _dispatch(self, solutions: List[Solution]
                  ) -> Tuple[List[Optional[MakespanResult]],
                             Optional[OptimizerTimeout]]:
        """Score *solutions* on the pool; results align with the input,
        None where a worker timed out first."""
        pool = self._ensure_pool()
        # A few chunks per worker: big enough to amortize task overhead,
        # small enough that an uneven assignment cannot starve the pool.
        count = min(len(solutions), self.jobs * 4)
        groups = [range(start, len(solutions), count)
                  for start in range(count)]
        tasks = [[(solutions[i].tile_sizes, solutions[i].thread_groups)
                  for i in group] for group in groups]
        self._metrics.dispatched += len(solutions)
        self._metrics.chunks += count
        results: List[Optional[MakespanResult]] = [None] * len(solutions)
        timeout: Optional[OptimizerTimeout] = None
        for group, (outcomes, metrics, marker) in zip(
                groups, pool.imap(_score_task, tasks)):
            self._metrics += metrics
            for index, outcome in zip(group, outcomes):
                results[index] = self.evaluator.record(
                    solutions[index], *outcome)
            if marker is not None and timeout is None:
                timeout = OptimizerTimeout(*marker)
        return results, timeout

    # -- walk accounting ---------------------------------------------------

    def note_pruned(self, count: int = 1) -> None:
        """Account candidates the caller discarded on an admissible bound."""
        self._metrics.pruned += count

    def note_bound_hit(self, count: int = 1) -> None:
        """Account pruned candidates the persistent cache already knew."""
        self._metrics.bound_hits += count

    def finalize(self, result: Optional[MakespanResult]
                 ) -> Optional[MakespanResult]:
        """Attach the full plan to a freshly-computed pool winner.

        Persistent-cache winners stay plan-less on purpose: a warm
        re-run must perform zero fresh plans."""
        if result is None or result.from_cache or result.plan is not None:
            return result
        return self.evaluator.attach_plan(result)

    # -- metrics ----------------------------------------------------------

    def metrics(self) -> EngineMetrics:
        """The engine's record with its evaluator's probe counters."""
        evaluator = self.evaluator
        return replace(self._metrics, evaluations=evaluator.evaluations,
                       memo_hits=evaluator.memo_hits,
                       cache_hits=evaluator.cache_hits)
