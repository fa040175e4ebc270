"""BatchEvaluator exactness, routing and integration tests.

The contract under test (DESIGN.md §11): ``evaluate_batch`` returns
*bit-identical* results — makespan bits, feasibility, reason strings,
byte totals, cache entries, counter movements — to a serial
``[evaluator.evaluate(s) for s in solutions]`` loop, on any component,
cold or warm, and routes every candidate the vector model cannot score
exactly through the event-driven simulator, never silently.
"""

import math
import multiprocessing
import os
import struct
import tempfile
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OptimizerTimeout
from repro.kernels import make_kernel
from repro.loopir import LoopTree
from repro.loopir.component import component_at
from repro.opt.bounds import BoundCalculator
from repro.opt.cache import PersistentCache
from repro.opt.exhaustive import (
    ExhaustiveOptimizer,
    assignment_candidates,
)
from repro.opt.pruned import PrunedOptimizer
from repro.opt.robust import RobustOptimizer
from repro.opt.solution import Solution
from repro.opt.threadgroups import generate_nondominated_thread_groups
from repro.opt.vectorized import NARROW_CHUNK, BatchEvaluator
from repro.schedule.makespan import Deadline, MakespanEvaluator
from repro.sim.profiler import fit_component_model
from repro.timing.platform import Platform
from tests.strategies import random_kernels

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="worker pool requires the fork start method")


def eight_cpus():
    return mock.patch.object(os, "cpu_count", lambda: 8)


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _component(kernel_name, preset, vars_):
    tree = LoopTree.build(make_kernel(kernel_name, preset))
    comp = component_at(tree, vars_)
    return comp, fit_component_model(comp)


@pytest.fixture(scope="module")
def lstm_small():
    return _component("lstm", "SMALL", ["s1_0", "p"])


@pytest.fixture(scope="module")
def rnn_small():
    return _component("rnn", "SMALL", ["s1", "p"])


def _all_solutions(comp, cores=8):
    """Every candidate point of the Algorithm-1 space, walk order."""
    solutions = []
    vars_ = [node.var for node in comp.nodes]
    for assignment in generate_nondominated_thread_groups(cores, comp):
        groups, candidate_lists = assignment_candidates(comp, assignment)
        for sizes in product(*candidate_lists):
            try:
                solutions.append(
                    Solution(comp, dict(zip(vars_, sizes)), groups))
            except ValueError:
                continue       # r > ceil(N/k): not a constructible point
    return solutions


def _assert_bitwise(serial, batched):
    """One result pair must match bit for bit, not approximately."""
    assert _bits(batched.makespan_ns) == _bits(serial.makespan_ns)
    assert batched.feasible == serial.feasible
    assert batched.reason == serial.reason
    assert batched.spm_bytes_needed == serial.spm_bytes_needed
    assert batched.transferred_bytes == serial.transferred_bytes
    assert batched.solution.key() == serial.solution.key()


# -- random small components ----------------------------------------------


class TestBitExactness:
    @settings(max_examples=10, deadline=None)
    @given(data=random_kernels(),
           spm_kib=st.sampled_from([1, 4, 128]),
           bus_div=st.sampled_from([1, 64]))
    def test_random_components_cold_and_warm(self, data, spm_kib, bus_div):
        kernel, vars_ = data
        tree = LoopTree.build(kernel)
        comp = component_at(tree, vars_)
        model = fit_component_model(comp)
        platform = Platform(spm_bytes=spm_kib * 1024).with_bus(
            16e9 / bus_div)
        with eight_cpus():
            solutions = _all_solutions(comp)

        serial_ev = MakespanEvaluator(comp, platform, model)
        serial = [serial_ev.evaluate(s) for s in solutions]

        batch_ev = MakespanEvaluator(comp, platform, model)
        batch = BatchEvaluator(batch_ev)
        cold = batch.evaluate_batch(solutions)
        for a, b in zip(serial, cold):
            _assert_bitwise(a, b)
        # Counter movements mirror the serial loop exactly.
        assert batch_ev.evaluations == serial_ev.evaluations
        assert batch.scored + batch.fallbacks == len(solutions)

        # Warm pass on the same evaluator: pure memo hits, zero fresh
        # evaluations, same bits, still reported as exact.
        before = batch_ev.evaluations
        warm = batch.evaluate_batch(solutions)
        assert batch_ev.evaluations == before
        assert all(batch.exactness_mask)
        for a, b in zip(serial, warm):
            _assert_bitwise(a, b)

    @settings(max_examples=6, deadline=None)
    @given(data=random_kernels())
    def test_persistent_cache_warm_run(self, data):
        kernel, vars_ = data
        tree = LoopTree.build(kernel)
        comp = component_at(tree, vars_)
        model = fit_component_model(comp)
        platform = Platform(spm_bytes=4096)
        with eight_cpus():
            solutions = _all_solutions(comp)
        with tempfile.TemporaryDirectory() as directory:
            cold_ev = MakespanEvaluator(
                comp, platform, model, cache=PersistentCache(directory))
            cold = BatchEvaluator(cold_ev).evaluate_batch(solutions)
            assert cold_ev.evaluations > 0

            warm_ev = MakespanEvaluator(
                comp, platform, model, cache=PersistentCache(directory))
            warm_batch = BatchEvaluator(warm_ev)
            warm = warm_batch.evaluate_batch(solutions)
            # Every candidate is a cache hit: no fresh evaluations, no
            # tensor program, and the hits count as exact decisions.
            assert warm_ev.evaluations == 0
            assert warm_ev.cache_hits > 0
            assert warm_batch.batches == 0
            assert all(warm_batch.exactness_mask)
        for a, b in zip(cold, warm):
            _assert_bitwise(a, b)

    def test_corpus_component_bitwise(self, lstm_small):
        comp, model = lstm_small
        platform = Platform()
        with eight_cpus():
            solutions = _all_solutions(comp)
        serial_ev = MakespanEvaluator(comp, platform, model)
        serial = [serial_ev.evaluate(s) for s in solutions]
        batch_ev = MakespanEvaluator(comp, platform, model)
        batch = BatchEvaluator(batch_ev)
        for a, b in zip(serial, batch.evaluate_batch(solutions)):
            _assert_bitwise(a, b)
        assert batch.fallbacks == 0
        assert batch.batches >= 1

    def test_in_batch_duplicates_hit_like_serial(self, rnn_small):
        comp, model = rnn_small
        with eight_cpus():
            solutions = _all_solutions(comp)[:8]
        doubled = solutions + solutions
        ev = MakespanEvaluator(comp, Platform(), model)
        batch = BatchEvaluator(ev)
        results = batch.evaluate_batch(doubled)
        assert ev.evaluations == len(solutions)
        for a, b in zip(results[:len(solutions)], results[len(solutions):]):
            _assert_bitwise(a, b)


class TestChunkWidthThreshold:
    """Chunks of at most ``NARROW_CHUNK`` candidates are scored by
    ``evaluate_pipeline``, wider ones by the lockstep loop; both sides
    of the threshold must equal the serial evaluator bit for bit."""

    @pytest.fixture(scope="class", params=[
        ("maxpool", ["n", "k", "p", "q", "r"]),
        ("cnn", ["n", "k", "p", "q", "c"]),
    ], ids=["maxpool", "cnn"])
    def feasible(self, request):
        """One thread-group assignment's feasible SMALL candidates,
        fewest segments first, few enough segments that each batch
        below fits one chunk."""
        name, vars_ = request.param
        comp, model = _component(name, "SMALL", vars_)
        with eight_cpus():
            assignment = next(iter(
                generate_nondominated_thread_groups(8, comp)))
        groups, candidate_lists = assignment_candidates(comp, assignment)
        solutions = [Solution(comp, dict(zip(vars_, sizes)), groups)
                     for sizes in product(*candidate_lists)]
        evaluator = MakespanEvaluator(comp, Platform(), model)
        solutions = [s for s in solutions
                     if evaluator.evaluate(s).feasible
                     and s.max_segments_per_core() <= 1000]
        solutions.sort(key=lambda s: s.max_segments_per_core())
        return comp, model, solutions

    @pytest.mark.parametrize("size", [1, NARROW_CHUNK, NARROW_CHUNK + 1, 64])
    def test_batch_equals_serial(self, feasible, size):
        comp, model, solutions = feasible
        assert len(solutions) >= 64
        # Spread the picks over the segment-count range.
        picks = solutions[::len(solutions) // size][:size]
        serial_ev = MakespanEvaluator(comp, Platform(), model)
        serial = [serial_ev.evaluate(s) for s in picks]
        batch = BatchEvaluator(MakespanEvaluator(comp, Platform(), model))
        results = batch.evaluate_batch(picks)
        assert batch.batches == 1            # one chunk, *size* wide
        assert all(batch.exactness_mask)
        for a, b in zip(serial, results):
            _assert_bitwise(a, b)


class TestFallbackRouting:
    def test_tiny_cell_budget_routes_to_simulator(self, rnn_small):
        """Candidates over the cell budget must take the event-driven
        path — flagged in ``exactness_mask``, counted, and still
        bit-identical to the serial loop."""
        comp, model = rnn_small
        platform = Platform()
        with eight_cpus():
            solutions = _all_solutions(comp)
        serial_ev = MakespanEvaluator(comp, platform, model)
        serial = [serial_ev.evaluate(s) for s in solutions]

        batch_ev = MakespanEvaluator(comp, platform, model)
        # threads * (segments + 2) >= 3 always, so a 2-cell budget
        # forces every planner-feasible candidate through the fallback.
        batch = BatchEvaluator(batch_ev, max_cells=2)
        results = batch.evaluate_batch(solutions)
        assert batch.fallbacks > 0
        assert batch.scored == batch.infeasible
        for a, b, is_exact in zip(serial, results, batch.exactness_mask):
            _assert_bitwise(a, b)
            if a.feasible:
                assert not is_exact      # simulator decided it
        # The mask aligns with the fallback counter, and preflight-exact
        # infeasibles are *not* fallbacks.
        assert batch.fallbacks == sum(
            1 for flag in batch.exactness_mask if not flag)

    def test_mixed_budget_routes_partially(self, rnn_small):
        comp, model = rnn_small
        with eight_cpus():
            solutions = _all_solutions(comp)
        ev = MakespanEvaluator(comp, Platform(), model)
        segs = [int(BatchEvaluator(ev)._batch_segments([s])[0])
                for s in solutions]
        cells = [s.threads * (g + 2) for s, g in zip(solutions, segs)]
        cutoff = sorted(cells)[len(cells) // 2]
        batch = BatchEvaluator(
            MakespanEvaluator(comp, Platform(), model), max_cells=cutoff)
        batch.evaluate_batch(solutions)
        assert batch.fallbacks > 0 and batch.scored > 0
        assert not all(batch.exactness_mask)
        assert any(batch.exactness_mask)


class TestDeadlineBetweenChunks:
    def test_expiry_mid_call_stops_before_next_chunk(self, rnn_small):
        """One ``evaluate_batch`` call may carry a whole cohort: a budget
        that runs out while its first chunk is scored must stop the call
        before the second chunk, with the first chunk still recorded."""
        comp, model = rnn_small
        with eight_cpus():
            solutions = _all_solutions(comp)
        probe = BatchEvaluator(MakespanEvaluator(comp, Platform(), model))
        # The widest candidate fills a chunk on its own: no fallbacks,
        # several chunks.
        max_cells = max(s.threads * (int(probe._batch_segments([s])[0]) + 2)
                        for s in solutions)
        unbounded = BatchEvaluator(
            MakespanEvaluator(comp, Platform(), model), max_cells=max_cells)
        unbounded.evaluate_batch(solutions)
        assert unbounded.batches >= 2 and unbounded.fallbacks == 0

        ev = MakespanEvaluator(comp, Platform(), model,
                               deadline=Deadline("batch", 1.0, math.inf))
        batch = BatchEvaluator(ev, max_cells=max_cells)
        scored = []
        score_chunk = batch._score_chunk

        def expire_after_first(entries):
            out = score_chunk(entries)
            scored.append([entry[1] for entry in entries])
            ev.deadline = Deadline("batch", 1.0, -math.inf)
            return out

        with mock.patch.object(batch, "_score_chunk", expire_after_first):
            with pytest.raises(OptimizerTimeout):
                batch.evaluate_batch(solutions)
        assert len(scored) == 1
        assert batch.batches == 1
        assert all(ev.peek(solution) is not None for solution in scored[0])


class TestQuickBoundArray:
    @pytest.mark.parametrize("fixture", ["lstm_small", "rnn_small"])
    def test_bitwise_parity_with_scalar(self, fixture, request):
        comp, model = request.getfixturevalue(fixture)
        platform = Platform()
        bounds = BoundCalculator(comp, platform, model, 8192)
        with eight_cpus():
            assignments = generate_nondominated_thread_groups(8, comp)
        for assignment in assignments:
            _groups, candidate_lists = assignment_candidates(
                comp, assignment)
            arr = bounds.quick_bound_array(candidate_lists, assignment)
            points = list(product(*candidate_lists))
            assert len(arr) == len(points)
            for value, sizes in zip(arr, points):
                scalar = bounds.quick_bound(sizes, assignment)
                assert _bits(float(value)) == _bits(scalar), \
                    f"{sizes} @ {assignment}: {value!r} != {scalar!r}"

    @settings(max_examples=8, deadline=None)
    @given(data=random_kernels(), spm_kib=st.sampled_from([1, 128]))
    def test_bitwise_parity_random(self, data, spm_kib):
        kernel, vars_ = data
        tree = LoopTree.build(kernel)
        comp = component_at(tree, vars_)
        model = fit_component_model(comp)
        bounds = BoundCalculator(
            comp, Platform(spm_bytes=spm_kib * 1024), model, 8192)
        with eight_cpus():
            assignments = generate_nondominated_thread_groups(8, comp)
        for assignment in assignments:
            _groups, candidate_lists = assignment_candidates(
                comp, assignment)
            arr = bounds.quick_bound_array(candidate_lists, assignment)
            for value, sizes in zip(arr, product(*candidate_lists)):
                assert _bits(float(value)) == \
                    _bits(bounds.quick_bound(sizes, assignment))


class TestOptimizerOnOffParity:
    """Winners with vectorization on vs off, bit for bit."""

    def _winner(self, result):
        if result.best is None or not result.best.feasible:
            return None
        return (_bits(result.best.makespan_ns),
                result.best.solution.key())

    @pytest.mark.parametrize("fixture", ["lstm_small", "rnn_small"])
    def test_pruned_on_off(self, fixture, request):
        comp, model = request.getfixturevalue(fixture)
        with eight_cpus():
            on = PrunedOptimizer(
                comp, Platform(), model, vectorize=True).optimize()
            off = PrunedOptimizer(
                comp, Platform(), model, vectorize=False).optimize()
        assert self._winner(on) == self._winner(off)
        assert on.batched > 0 and on.batch_fallbacks == 0
        assert off.batched == 0

    @pytest.mark.parametrize("fixture", ["lstm_small", "rnn_small"])
    def test_robust_on_off(self, fixture, request):
        comp, model = request.getfixturevalue(fixture)
        with eight_cpus():
            on = RobustOptimizer(
                comp, Platform(), model, scenarios=3, seed=0,
                vectorize=True).optimize(8)
            off = RobustOptimizer(
                comp, Platform(), model, scenarios=3, seed=0,
                vectorize=False).optimize(8)
        assert self._winner(on) == self._winner(off)
        assert _bits(on.robust.risk_ns) == _bits(off.robust.risk_ns)
        assert on.best.solution.key() == off.best.solution.key()
        assert tuple(map(_bits, on.robust.scenario_ns)) == \
            tuple(map(_bits, off.robust.scenario_ns))
        assert on.batched > 0

    @needs_fork
    def test_exhaustive_engine_on_off_jobs(self, rnn_small):
        comp, model = rnn_small
        with eight_cpus():
            off = ExhaustiveOptimizer(
                comp, Platform(), model, max_points=10**9).optimize()
            on1 = ExhaustiveOptimizer(
                comp, Platform(), model, max_points=10**9,
                vectorize=True).optimize()
            on2 = ExhaustiveOptimizer(
                comp, Platform(), model, max_points=10**9,
                vectorize=True, jobs=2).optimize()
        assert self._winner(off) == self._winner(on1) == self._winner(on2)
        assert off.evaluations == on1.evaluations == on2.evaluations
        assert on1.batched > 0
        assert on2.batched > 0
        assert off.batched == 0


class TestAdoption:
    def test_batch_results_enter_memo_and_cache(self, rnn_small):
        comp, model = rnn_small
        with eight_cpus():
            solutions = _all_solutions(comp)[:6]
        with tempfile.TemporaryDirectory() as directory:
            ev = MakespanEvaluator(
                comp, Platform(), model, cache=PersistentCache(directory))
            batch = BatchEvaluator(ev)
            results = batch.evaluate_batch(solutions)
            # Scored candidates are adopted as real evaluations: peek
            # now hits the memo and the persistent store has them.
            for solution, result in zip(solutions, results):
                hit = ev.peek(solution)
                assert hit is not None
                _assert_bitwise(result, hit)
            entries = len(PersistentCache(directory))
            assert entries == len({s.key() for s in solutions})
