"""Parallel candidate-evaluation engine tests.

The load-bearing property is *bit-identical determinism*: for any jobs
count the optimizers must report the same best solution, the same
makespan, and the same evaluation count as a serial run.  Everything
else (metrics, chunking, the timeout path) hangs off that.  The
exhaustive search's ``best_of`` reduction is tested here too: it is
what makes the winner independent of worker completion order.
"""

import math
import multiprocessing
import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OptimizerTimeout
from repro.kernels import make_kernel
from repro.loopir import LoopTree
from repro.loopir.component import component_at
from repro.opt.cache import PersistentCache
from repro.opt.component import ComponentOptimizer
from repro.opt.engine import EvaluationEngine, effective_jobs
from repro.opt.exhaustive import ExhaustiveOptimizer, best_of
from repro.opt.pruned import PrunedOptimizer
from repro.opt.solution import Solution
from repro.opt.vectorized import BatchEvaluator
from repro.schedule.makespan import (
    Deadline,
    MakespanEvaluator,
    MakespanResult,
)
from repro.sim.profiler import fit_component_model
from repro.timing.platform import Platform

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="worker pool requires the fork start method")


def eight_cpus():
    """Lift the cpu-count clamp so pools really fork on small CI hosts.

    Workers on an oversubscribed host are slower, never wrong — exactly
    the situation the determinism guarantee must hold in."""
    return mock.patch.object(os, "cpu_count", lambda: 8)


@pytest.fixture(scope="module")
def lstm_tree():
    return LoopTree.build(make_kernel("lstm", "LARGE"))


@pytest.fixture(scope="module")
def b0(lstm_tree):
    comp = component_at(lstm_tree, ["b_0"])
    return comp, fit_component_model(comp)


@pytest.fixture(scope="module")
def two_level():
    tree = LoopTree.build(make_kernel("lstm", "SMALL"))
    comp = component_at(tree, ["s1_0", "p"])
    return comp, fit_component_model(comp)


class TestEffectiveJobs:
    def test_serial_requests_stay_serial(self):
        assert effective_jobs(None) == 1
        assert effective_jobs(0) == 1
        assert effective_jobs(1) == 1
        assert effective_jobs(-3) == 1

    def test_clamped_to_cpu_count(self):
        assert effective_jobs(10_000) <= (os.cpu_count() or 1)

    @needs_fork
    def test_parallel_allowed_with_fork(self):
        with eight_cpus():
            assert effective_jobs(2) == 2


class TestBestOf:
    def _result(self, comp, makespan, k, feasible=True):
        solution = Solution(comp, {"b_0": k}, {"b_0": 1})
        return MakespanResult(
            component=comp, solution=solution,
            makespan_ns=makespan, feasible=feasible)

    def test_tie_breaks_on_solution_key(self, b0):
        comp, _ = b0
        low_key = self._result(comp, 100.0, 2)
        high_key = self._result(comp, 100.0, 5)
        # Order of presentation must not matter.
        assert best_of(
            [high_key, low_key]).solution.key() == low_key.solution.key()
        assert best_of(
            [low_key, high_key]).solution.key() == low_key.solution.key()

    def test_skips_none_and_infeasible(self, b0):
        comp, _ = b0
        winner = self._result(comp, 50.0, 3)
        loser = self._result(comp, math.inf, 2, feasible=False)
        assert best_of([None, loser, winner]) is winner
        assert best_of([None, loser]) is None
        assert best_of([]) is None


class TestSerialEngine:
    def test_passthrough_counts_match_evaluator(self, b0):
        comp, model = b0
        evaluator = MakespanEvaluator(comp, Platform(), model)
        with EvaluationEngine(evaluator, jobs=1) as engine:
            assert not engine.parallel
            requests = [({"b_0": k}, {"b_0": 1}) for k in (2, 5, 10)]
            results = engine.evaluate_many(requests)
        assert len(results) == 3
        assert evaluator.evaluations == 3
        assert [r.solution.level("b_0").K for r in results] == [2, 5, 10]

    def test_duplicates_planned_once(self, b0):
        comp, model = b0
        evaluator = MakespanEvaluator(comp, Platform(), model)
        with EvaluationEngine(evaluator, jobs=1) as engine:
            requests = [({"b_0": 5}, {"b_0": 1})] * 4
            results = engine.evaluate_many(requests)
        assert evaluator.evaluations == 1
        assert all(r.makespan_ns == results[0].makespan_ns
                   for r in results)

    def test_invalid_requests_counted(self, b0):
        comp, model = b0
        n = comp.nodes[0].N
        evaluator = MakespanEvaluator(comp, Platform(), model)
        with EvaluationEngine(evaluator, jobs=1) as engine:
            [result] = engine.evaluate_many([({"b_0": n + 1}, {"b_0": 1})])
        assert not result.feasible
        assert evaluator.evaluations == 1
        assert engine.metrics().invalid == 1


@needs_fork
class TestParallelEngine:
    def test_results_identical_to_serial(self, b0):
        comp, model = b0
        requests = [({"b_0": k}, {"b_0": r})
                    for k in (1, 2, 5, 10, 13, 25) for r in (1, 2, 4)]

        serial_eval = MakespanEvaluator(comp, Platform(), model)
        with EvaluationEngine(serial_eval, jobs=1) as engine:
            serial = engine.evaluate_many(requests)

        parallel_eval = MakespanEvaluator(comp, Platform(), model)
        with eight_cpus(), \
                EvaluationEngine(parallel_eval, jobs=4) as engine:
            assert engine.parallel
            parallel = engine.evaluate_many(requests)

        assert serial_eval.evaluations == parallel_eval.evaluations
        for left, right in zip(serial, parallel):
            assert left.makespan_ns == right.makespan_ns
            assert left.feasible == right.feasible
            assert left.solution.key() == right.solution.key()
            assert left.transferred_bytes == right.transferred_bytes
            assert left.spm_bytes_needed == right.spm_bytes_needed

    def test_metrics_account_for_dispatch(self, b0):
        comp, model = b0
        evaluator = MakespanEvaluator(comp, Platform(), model)
        requests = [({"b_0": k}, {"b_0": 1}) for k in (1, 2, 5, 10)]
        with eight_cpus(), \
                EvaluationEngine(evaluator, jobs=2) as engine:
            engine.evaluate_many(requests)
            metrics = engine.metrics()
        assert metrics.jobs == 2
        assert metrics.dispatched == 4
        assert metrics.evaluations == 4
        assert metrics.probes == 4

    def test_timeout_crosses_pool_boundary(self, b0):
        comp, model = b0
        evaluator = MakespanEvaluator(
            comp, Platform(), model,
            deadline=Deadline("engine-test", 0.25, 0.0))
        requests = [({"b_0": k}, {"b_0": 1}) for k in (1, 2, 5, 10)]
        with eight_cpus(), \
                EvaluationEngine(evaluator, jobs=2) as engine:
            with pytest.raises(OptimizerTimeout) as exc:
                engine.evaluate_many(requests)
        assert exc.value.stage == "engine-test"
        assert exc.value.budget_s == 0.25

    def test_warm_cache_skips_dispatch(self, b0, tmp_path):
        comp, model = b0
        requests = [({"b_0": k}, {"b_0": 1}) for k in (2, 5, 10)]

        cold_eval = MakespanEvaluator(
            comp, Platform(), model, cache=PersistentCache(tmp_path))
        with eight_cpus(), \
                EvaluationEngine(cold_eval, jobs=2) as engine:
            engine.evaluate_many(requests)
        assert cold_eval.evaluations == 3

        warm_eval = MakespanEvaluator(
            comp, Platform(), model, cache=PersistentCache(tmp_path))
        with eight_cpus(), \
                EvaluationEngine(warm_eval, jobs=2) as engine:
            warm = engine.evaluate_many(requests)
            metrics = engine.metrics()
        assert warm_eval.evaluations == 0
        assert warm_eval.cache_hits == 3
        assert metrics.dispatched == 0
        assert all(r.from_cache for r in warm)

    def test_close_never_tears_the_cache_log(self, b0, tmp_path):
        # close() drains workers instead of terminate()ing them, so no
        # worker can die mid-append to the shared JSONL log.  Cycle the
        # pool a few times with appends in flight right up to close.
        comp, model = b0
        for round_ in range(3):
            evaluator = MakespanEvaluator(
                comp, Platform(), model, cache=PersistentCache(tmp_path))
            requests = [({"b_0": k}, {"b_0": r})
                        for k in (1, 2, 5, 10, 13, 25)
                        for r in (1, 2, 4)][round_:]
            with eight_cpus(), \
                    EvaluationEngine(evaluator, jobs=4) as engine:
                engine.evaluate_many(requests)
        reloaded = PersistentCache(tmp_path)
        stats = reloaded.stats()
        assert stats["entries"] > 0
        assert reloaded.corrupt_lines == 0


@needs_fork
class TestOptimizerParity:
    def test_exhaustive_parity(self, two_level):
        comp, model = two_level
        serial = ExhaustiveOptimizer(
            comp, Platform(), model, jobs=1).optimize(8)
        with eight_cpus():
            parallel = ExhaustiveOptimizer(
                comp, Platform(), model, jobs=4).optimize(8)
        assert serial.evaluations == parallel.evaluations
        assert serial.makespan_ns == parallel.makespan_ns
        assert serial.best.solution.key() == parallel.best.solution.key()
        assert parallel.best.plan is not None

    def test_heuristic_parity(self, two_level):
        comp, model = two_level
        serial = ComponentOptimizer(
            comp, Platform(), model, jobs=1).optimize(8)
        with eight_cpus():
            parallel = ComponentOptimizer(
                comp, Platform(), model, jobs=4).optimize(8)
        assert serial.evaluations == parallel.evaluations
        assert serial.makespan_ns == parallel.makespan_ns
        assert serial.best.solution.key() == parallel.best.solution.key()

    @pytest.mark.parametrize("search",
                             [ExhaustiveOptimizer, PrunedOptimizer])
    def test_batch_routing_parity(self, two_level, search):
        """Pool workers and the inline engine route the same candidates
        to the vector model and to the simulator."""
        comp, model = two_level
        # A small cell budget forces some simulator fallbacks, so both
        # counters carry information.
        small_budget = mock.patch.object(
            BatchEvaluator.__init__, "__defaults__", (64,))
        runs = []
        for jobs in (1, 2):
            with eight_cpus(), small_budget:
                runs.append(search(comp, Platform(), model, jobs=jobs,
                                   vectorize=True).optimize(8))
        serial, parallel = runs
        assert serial.batched > 0 and serial.batch_fallbacks > 0
        assert parallel.batched == serial.batched
        assert parallel.batch_fallbacks == serial.batch_fallbacks
        assert parallel.evaluations == serial.evaluations
        assert parallel.metrics.dispatched > 0
        assert serial.makespan_ns == parallel.makespan_ns
        assert serial.best.solution.key() == parallel.best.solution.key()

    @settings(max_examples=6, deadline=None)
    @given(
        jobs=st.integers(min_value=2, max_value=4),
        cores=st.sampled_from([2, 4, 8]),
        bus_div=st.sampled_from([1, 8, 64]),
    )
    def test_parity_property(self, b0, jobs, cores, bus_div):
        """Serial and parallel runs agree for any (jobs, platform)."""
        comp, model = b0
        platform = Platform().with_bus(16e9 / bus_div)
        serial = ExhaustiveOptimizer(
            comp, platform, model, jobs=1).optimize(cores)
        with eight_cpus():
            parallel = ExhaustiveOptimizer(
                comp, platform, model, jobs=jobs).optimize(cores)
        assert serial.evaluations == parallel.evaluations
        assert serial.makespan_ns == parallel.makespan_ns
        if serial.best is not None:
            assert serial.best.solution.key() == \
                parallel.best.solution.key()
