"""Parallel candidate-evaluation engine.

Every optimizer in this package boils down to probing many ``(R, K)``
candidates through :meth:`MakespanEvaluator.evaluate_params`; Section
4.3 motivates the heuristic precisely because that probing is the cost
that "would take unacceptable time" at scale.  This module fans those
probes out over a ``multiprocessing`` worker pool while keeping the
serial semantics bit-for-bit:

* the parent evaluator stays authoritative — candidates are deduplicated
  against its memo and the persistent cache *before* dispatch, each
  dispatched candidate is adopted back exactly once, so the evaluation
  counts match a serial run regardless of worker scheduling;
* the reduction (:meth:`EvaluationEngine.best_of`) orders candidates by
  ``(makespan, solution key)``, so the winner is independent of worker
  completion order and of ``jobs``;
* workers receive the component / platform / exec-model once, at pool
  start (the pool uses the ``fork`` start method, so the unpicklable
  statement compute closures are inherited, not serialized); task
  payloads are just tile-size/thread-group dicts and results are plain
  scalars.

On platforms without ``fork`` (or with ``jobs <= 1``) the engine
degrades to inline evaluation — same results, same counts, one process.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

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

# ---------------------------------------------------------------------------
# worker side

_WORKER: Dict[str, object] = {}


def _init_worker(component, platform, exec_model, segment_cap, modes,
                 deadline, stage, budget_s, vectorize=False) -> None:
    """Pool initializer: build this process's evaluator once.

    Under the fork start method the arguments are inherited by memory
    copy, so the component's compute closures never need pickling.
    ``perf_counter`` is CLOCK_MONOTONIC on Linux and therefore
    comparable across the fork, which keeps the parent's deadline
    meaningful inside workers.  With *vectorize* the worker scores its
    chunks through a :class:`BatchEvaluator` (bit-identical outcomes,
    one tensor program per sub-batch instead of one plan per
    candidate)."""
    evaluator = MakespanEvaluator(
        component, platform, exec_model, segment_cap, modes)
    if deadline is not None:
        evaluator.set_deadline(deadline, stage, budget_s)
    _WORKER["evaluator"] = evaluator
    _WORKER["batch"] = BatchEvaluator(evaluator) if vectorize else None


def _slim(result: MakespanResult) -> Tuple[float, bool, str, int, int]:
    return (result.makespan_ns, result.feasible, result.reason,
            result.spm_bytes_needed, result.transferred_bytes)


def _eval_chunk(requests: Sequence[Request]) -> Dict:
    """Evaluate one chunk of fresh candidates; return slim outcomes."""
    evaluator = _WORKER["evaluator"]
    batch = _WORKER.get("batch")
    started = time.perf_counter()
    outcomes: List[Tuple[float, bool, str, int, int]] = []
    timeout: Optional[Tuple[str, float]] = None
    batched = fallbacks = 0

    solutions: Optional[List[Solution]] = None
    if batch is not None:
        solutions = []
        for tile_sizes, thread_groups in requests:
            try:
                solutions.append(Solution(
                    evaluator.component, tile_sizes, thread_groups))
            except ValueError:
                solutions = None      # invalid probe: per-candidate path
                break

    if solutions is not None:
        # Sub-batches keep the deadline responsive: each one is preceded
        # by a clock check, and a timeout ships the completed outcomes
        # so no finished tensor program is wasted.
        for start in range(0, len(solutions), _WORKER_SUBBATCH):
            sub = solutions[start:start + _WORKER_SUBBATCH]
            try:
                evaluator.check_deadline()
                results = batch.evaluate_batch(sub)
            except OptimizerTimeout as error:
                timeout = (error.stage, error.budget_s)
                break
            for result, exact in zip(results, batch.exactness_mask):
                outcomes.append(_slim(result))
                if exact:
                    batched += 1
                else:
                    fallbacks += 1
    else:
        for tile_sizes, thread_groups in requests:
            try:
                result = evaluator.evaluate_params(tile_sizes, thread_groups)
            except OptimizerTimeout as error:
                # OptimizerTimeout's two-argument constructor does not
                # survive pickling across the pool; ship a sentinel
                # instead.
                timeout = (error.stage, error.budget_s)
                break
            outcomes.append(_slim(result))
    return {
        "outcomes": outcomes,
        "busy_s": time.perf_counter() - started,
        "timeout": timeout,
        "batched": batched,
        "batch_fallbacks": fallbacks,
    }


# ---------------------------------------------------------------------------
# parent side


@dataclass
class EngineMetrics:
    """Counters the engine exposes for reporting/benchmarks."""

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

    def as_dict(self) -> Dict[str, float]:
        return {
            "jobs": self.jobs,
            "evaluations": self.evaluations,
            "memo hits": self.memo_hits,
            "cache hits": self.cache_hits,
            "invalid": self.invalid,
            "dispatched": self.dispatched,
            "evaluations/s": round(self.evaluations_per_s, 1),
            "cache hit rate": round(self.cache_hit_rate, 4),
            "worker utilization": round(self.worker_utilization, 4),
            "pruned": self.pruned,
            "bound hits": self.bound_hits,
            "batched": self.batched,
            "batch fallbacks": self.batch_fallbacks,
        }


def effective_jobs(jobs: Optional[int]) -> int:
    """Clamp a jobs request to something the host can actually run."""
    if not jobs or jobs <= 1:
        return 1
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1        # spawn cannot ship compute closures; stay serial
    return max(1, min(jobs, os.cpu_count() or 1))


class EvaluationEngine:
    """Fan ``evaluate_params`` probes over a worker pool, deterministically.

    The engine wraps an existing :class:`MakespanEvaluator` (sharing its
    memo, persistent cache, deadline, and evaluation counter) so it can
    be dropped into any optimizer without changing its accounting."""

    def __init__(self, evaluator: MakespanEvaluator, jobs: int = 1,
                 stage: str = "engine", vectorize: bool = False):
        self.evaluator = evaluator
        self.requested_jobs = jobs
        self.jobs = effective_jobs(jobs)
        self.stage = stage
        self.vectorize = vectorize
        self._pool = None
        self._dispatched = 0
        self._chunks = 0
        self._elapsed_s = 0.0
        self._busy_s = 0.0
        self._invalid = 0
        self._pruned = 0
        self._bound_hits = 0
        self._batched = 0
        self._batch_fallbacks = 0
        self._batch: Optional[BatchEvaluator] = None   # serial vector path

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

    def evaluate_params(self, tile_sizes, thread_groups=None
                        ) -> MakespanResult:
        """Single-probe passthrough (always inline)."""
        return self.evaluator.evaluate_params(tile_sizes, thread_groups)

    def evaluate_chunks(self, chunks: Sequence[Sequence[Request]]
                        ) -> List[List[MakespanResult]]:
        """Evaluate request chunks; results align with the inputs.

        Chunks are the dispatch granularity — callers group candidates
        by thread-group assignment so one task carries one assignment's
        tile-size products.  Cached / invalid / duplicate candidates are
        resolved in the parent; only genuinely fresh solutions travel to
        the pool."""
        started = time.perf_counter()
        results: List[List[Optional[MakespanResult]]] = [
            [None] * len(chunk) for chunk in chunks]
        # (chunk index, request index, solution) per fresh candidate,
        # deduplicated by solution key across the whole batch.
        fresh: Dict[tuple, List[Tuple[int, int]]] = {}
        fresh_solutions: Dict[tuple, Solution] = {}

        for ci, chunk in enumerate(chunks):
            for ri, (tile_sizes, thread_groups) in enumerate(chunk):
                try:
                    solution = Solution(
                        self.evaluator.component, tile_sizes, thread_groups)
                except ValueError:
                    self._invalid += 1
                    results[ci][ri] = self.evaluator.evaluate_params(
                        tile_sizes, thread_groups)
                    continue
                hit = self.evaluator.peek(solution)
                if hit is not None:
                    results[ci][ri] = hit
                    continue
                key = solution.key()
                fresh.setdefault(key, []).append((ci, ri))
                fresh_solutions.setdefault(key, solution)

        if fresh:
            self.evaluator.check_deadline()
            if self.parallel:
                self._dispatch(fresh, fresh_solutions, results)
            elif self.vectorize:
                if self._batch is None:
                    self._batch = BatchEvaluator(self.evaluator)
                keys = list(fresh.keys())
                scored = self._batch.evaluate_batch(
                    [fresh_solutions[key] for key in keys])
                for key, result, exact in zip(
                        keys, scored, self._batch.exactness_mask):
                    if exact:
                        self._batched += 1
                    else:
                        self._batch_fallbacks += 1
                    for ci, ri in fresh[key]:
                        results[ci][ri] = result
            else:
                for key, places in fresh.items():
                    result = self.evaluator.evaluate(fresh_solutions[key])
                    for ci, ri in places:
                        results[ci][ri] = result

        self._elapsed_s += time.perf_counter() - started
        return [list(chunk) for chunk in results]    # type: ignore

    def evaluate_many(self, requests: Sequence[Request]
                      ) -> List[MakespanResult]:
        """Flat-list convenience: split fresh work across the pool."""
        if not self.parallel or len(requests) <= 1:
            return self.evaluate_chunks([list(requests)])[0]
        # Round-robin into one chunk per worker keeps chunks balanced
        # when the caller has no natural grouping.
        buckets: List[List[Request]] = [[] for _ in range(self.jobs)]
        order: List[Tuple[int, int]] = []
        for index, request in enumerate(requests):
            bucket = index % self.jobs
            order.append((bucket, len(buckets[bucket])))
            buckets[bucket].append(request)
        chunked = self.evaluate_chunks(buckets)
        return [chunked[b][i] for b, i in order]

    def _dispatch(self, fresh: Dict[tuple, List[Tuple[int, int]]],
                  solutions: Dict[tuple, Solution],
                  results: List[List[Optional[MakespanResult]]]) -> None:
        pool = self._ensure_pool()
        keys = list(fresh.keys())
        # A few chunks per worker: big enough to amortize task overhead,
        # small enough that an uneven assignment cannot starve the pool.
        chunk_count = min(len(keys), self.jobs * 4)
        task_keys: List[List[tuple]] = [[] for _ in range(chunk_count)]
        for index, key in enumerate(keys):
            task_keys[index % chunk_count].append(key)
        tasks = [
            [(solutions[key].tile_sizes, solutions[key].thread_groups)
             for key in group]
            for group in task_keys
        ]
        self._dispatched += len(keys)
        self._chunks += len(tasks)
        timeout: Optional[Tuple[str, float]] = None
        for group, reply in zip(task_keys, pool.imap(_eval_chunk, tasks)):
            self._busy_s += reply["busy_s"]
            self._batched += reply.get("batched", 0)
            self._batch_fallbacks += reply.get("batch_fallbacks", 0)
            for key, outcome in zip(group, reply["outcomes"]):
                makespan_ns, feasible, reason, spm, transferred = outcome
                result = self.evaluator.record_remote(
                    solutions[key], makespan_ns, feasible, reason,
                    spm_bytes=spm, transferred_bytes=transferred)
                for ci, ri in fresh[key]:
                    results[ci][ri] = result
            if reply["timeout"] is not None and timeout is None:
                timeout = reply["timeout"]
        if timeout is not None:
            raise OptimizerTimeout(*timeout)

    # -- walk accounting ---------------------------------------------------

    def note_pruned(self, count: int = 1) -> None:
        """Account candidates the caller discarded on an admissible bound."""
        self._pruned += count

    def note_bound_hit(self, count: int = 1) -> None:
        """Account pruned candidates the persistent cache already knew."""
        self._bound_hits += count

    # -- reduction --------------------------------------------------------

    @staticmethod
    def best_of(results: Iterable[Optional[MakespanResult]]
                ) -> Optional[MakespanResult]:
        """Deterministic winner: min ``(makespan, solution key)``.

        Independent of evaluation order, so serial and parallel runs —
        and re-runs against a warm cache — agree on ties."""
        best: Optional[MakespanResult] = None
        best_rank: Optional[tuple] = None
        for result in results:
            if result is None or not result.feasible:
                continue
            rank = (result.makespan_ns, result.solution.key())
            if best_rank is None or rank < best_rank:
                best, best_rank = result, rank
        return best

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
        return EngineMetrics(
            jobs=self.jobs,
            evaluations=self.evaluator.evaluations,
            memo_hits=self.evaluator.memo_hits,
            cache_hits=self.evaluator.cache_hits,
            invalid=self._invalid,
            dispatched=self._dispatched,
            chunks=self._chunks,
            elapsed_s=self._elapsed_s,
            busy_s=self._busy_s,
            pruned=self._pruned,
            bound_hits=self._bound_hits,
            batched=self._batched,
            batch_fallbacks=self._batch_fallbacks,
        )
