"""Front exactness of the multi-objective sweep.

The contract under test: `ParetoOptimizer` emits the *exact*
non-dominated front over (makespan, SPM bytes, DMA bytes, cores) —
bit-identical to the unpruned reference sweep and across every
execution toggle (jobs, vectorize, cold/warm cache) — and every
weighted-scalarization winner lies on that front.  The dominance tier
may only skip candidates whose admissible bound vector is already
dominated by an achieved vector, so the front can never lose a member
to pruning.
"""

import math
import multiprocessing
import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import make_kernel
from repro.loopir import LoopTree
from repro.loopir.component import component_at
from repro.opt.cache import PersistentCache
from repro.opt.exhaustive import SearchSpaceTooLarge
from repro.opt.pareto import (
    DEFAULT_WEIGHTS,
    OBJECTIVES,
    ParetoOptimizer,
    ParetoPoint,
    compose_fronts,
    dominates_vector,
    kernel_front,
    pareto_front,
    scalarize,
)
from repro.opt.pruned import PrunedOptimizer
from repro.opt.tree import TreeOptimizer
from repro.sim.profiler import fit_component_model
from repro.timing.platform import Platform
from tests.strategies import random_kernels

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="worker pool requires the fork start method")


def eight_cpus():
    return mock.patch.object(os, "cpu_count", lambda: 8)


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


@pytest.fixture(scope="module")
def maxpool_small():
    return _component("maxpool", "SMALL", ["n", "k", "p", "q", "r"])


def _front_key(result):
    """The comparable identity of a front: vectors plus representatives."""
    return tuple((p.objectives, p.flat) for p in result.front)


def _counters(result):
    return (result.candidates, result.scored,
            result.pruned, result.dominance_pruned)


def _point(makespan, spm, dma, cores, flat):
    """Hand-built front point for the pure-function tests."""
    return ParetoPoint(result=None, flat=flat, makespan_ns=float(makespan),
                       spm_bytes=spm, dma_bytes=dma, cores=cores)


def _score(front, weights, point):
    """Reference weighted sum of *point* over *front*'s ranges."""
    total = []
    for i, weight in enumerate(weights):
        lo = min(p.objectives[i] for p in front)
        hi = max(p.objectives[i] for p in front)
        span = hi - lo if hi > lo else 1.0
        total.append(weight * (point.objectives[i] - lo) / span)
    return math.fsum(total)


# -- pure functions ---------------------------------------------------------


class TestDominance:
    def test_equal_vectors_do_not_dominate(self):
        assert not dominates_vector((1.0, 2, 3, 4), (1.0, 2, 3, 4))

    def test_weak_dominance_needs_one_strict_coordinate(self):
        assert dominates_vector((1.0, 2, 3, 4), (1.0, 2, 3, 5))
        assert dominates_vector((0.5, 2, 3, 4), (1.0, 2, 3, 4))
        assert not dominates_vector((0.5, 9, 3, 4), (1.0, 2, 3, 4))

    def test_front_drops_dominated_and_dedupes_on_min_flat(self):
        a = _point(1.0, 10, 10, 1, (0, 1))
        twin = _point(1.0, 10, 10, 1, (0, 0))      # same vector, smaller key
        dominated = _point(2.0, 10, 10, 1, (0, 2))
        incomparable = _point(0.5, 20, 10, 1, (0, 3))
        front = pareto_front([a, dominated, twin, incomparable])
        assert [p.flat for p in front] == [(0, 3), (0, 0)]

    def test_front_members_are_mutually_nondominated(self):
        points = [_point(m, s, d, c, (m, s, d, c))
                  for m in (1, 2, 3) for s in (1, 2)
                  for d in (1, 2) for c in (1, 2)]
        front = pareto_front(points)
        assert front == (points[0],)   # (1,1,1,1) dominates everything


class TestCompose:
    def test_sums_and_maxima(self):
        front_a = (_point(10.0, 100, 1000, 2, (1,)),)
        front_b = (_point(5.0, 300, 500, 4, (2,)),)
        composed = compose_fronts([(front_a, 3), (front_b, 1)])
        assert len(composed) == 1
        only = composed[0]
        assert only.objectives == (35.0, 300, 3500, 4)
        assert only.picks == ((1,), (2,))

    def test_empty_component_front_means_infeasible_kernel(self):
        front_a = (_point(10.0, 100, 1000, 2, (1,)),)
        assert compose_fronts([(front_a, 1), ((), 1)]) == ()

    def test_intermediate_filtering_keeps_the_exact_product_front(self):
        front_a = (_point(1.0, 10, 10, 1, (1,)), _point(2.0, 5, 10, 1, (2,)))
        front_b = (_point(1.0, 10, 10, 1, (3,)), _point(2.0, 5, 10, 1, (4,)))
        composed = compose_fronts([(front_a, 1), (front_b, 1)])
        # Brute-force reference over the 4 combinations.
        combos = {}
        for a in front_a:
            for b in front_b:
                vector = (a.makespan_ns + b.makespan_ns,
                          max(a.spm_bytes, b.spm_bytes),
                          a.dma_bytes + b.dma_bytes,
                          max(a.cores, b.cores))
                picks = (a.flat, b.flat)
                if vector not in combos or picks < combos[vector]:
                    combos[vector] = picks
        reference = [
            (vector, picks) for vector, picks in sorted(combos.items())
            if not any(dominates_vector(other, vector)
                       for other in combos if other != vector)]
        assert [(p.objectives, p.picks) for p in composed] == reference

    def test_ties_keep_the_lexicographically_smallest_picks(self):
        front_a = (_point(1.0, 10, 10, 1, (9,)), _point(1.0, 10, 10, 1, (1,)))
        composed = compose_fronts([(front_a, 1)])
        assert len(composed) == 1
        assert composed[0].picks == ((1,),)


class TestScalarizeValidation:
    FRONT = (_point(1.0, 10, 10, 1, (1,)), _point(2.0, 5, 10, 1, (2,)))

    def test_rejects_wrong_weight_count(self):
        with pytest.raises(ValueError, match="weights"):
            scalarize(self.FRONT, (1.0, 1.0))

    def test_rejects_non_positive_weights(self):
        with pytest.raises(ValueError, match="strictly positive"):
            scalarize(self.FRONT, (1.0, 0.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="strictly positive"):
            scalarize(self.FRONT, (1.0, -1.0, 1.0, 1.0))

    def test_rejects_empty_front(self):
        with pytest.raises(ValueError, match="empty"):
            scalarize((), (0.25, 0.25, 0.25, 0.25))

    def test_winner_prefers_the_weighted_objective(self):
        fast = scalarize(self.FRONT, (0.85, 0.05, 0.05, 0.05))
        lean = scalarize(self.FRONT, (0.05, 0.85, 0.05, 0.05))
        assert fast.point.flat == (1,)
        assert lean.point.flat == (2,)

    @settings(max_examples=60, deadline=None)
    @given(vectors=st.lists(
        st.tuples(st.integers(1, 9), st.integers(1, 9),
                  st.integers(1, 9), st.integers(1, 4)),
        min_size=1, max_size=12))
    def test_front_alone_decides_the_winner(self, vectors):
        """The winner over the front is the winner over every point,
        scored with the front's ranges: with strictly positive weights a
        dominated point scores above its dominator."""
        points = [_point(*vector, (i,)) for i, vector in enumerate(vectors)]
        front = pareto_front(points)
        for weights in DEFAULT_WEIGHTS:
            winner = scalarize(front, weights)
            scores = {p.flat: _score(front, weights, p) for p in points}
            best = min(points, key=lambda p: (scores[p.flat], p.flat))
            assert winner.point is best
            assert winner.score == scores[best.flat]


# -- the sweep itself -------------------------------------------------------


def _assert_exact_front(comp, model, platform):
    """Pruned sweep == unpruned reference; winners on front; bounds hold."""
    pruned = ParetoOptimizer(comp, platform, model).optimize()
    reference = ParetoOptimizer(
        comp, platform, model, prune=False).optimize()
    assert reference.dominance_pruned == 0
    assert _front_key(pruned) == _front_key(reference)

    front = pruned.front
    for i, mine in enumerate(front):
        for j, other in enumerate(front):
            if i != j:
                assert not dominates_vector(
                    mine.objectives, other.objectives)

    single = PrunedOptimizer(comp, platform, model).optimize()
    if single.best is None or not single.best.feasible:
        assert not front
    else:
        assert front[0].makespan_ns == single.best.makespan_ns
        assert front[0].solution.key() == single.best.solution.key()
    return pruned


def _assert_admissible_bounds(comp, model, platform, front):
    """Every achieved vector sits at or above its bound vector."""
    optimizer = ParetoOptimizer(comp, platform, model)
    vars_ = [node.var for node in comp.nodes]
    for point in front:
        solution = point.solution
        sizes = tuple(solution.tile_sizes[v] for v in vars_)
        assignment = tuple(solution.thread_groups[v] for v in vars_)
        refined = optimizer.bounds.refine(0.0, sizes, assignment)
        assert refined <= point.makespan_ns * (1 + 1e-9)
        spm = optimizer.bounds.spm_bytes_exact(solution.tile_sizes)
        if spm is None:
            spm = optimizer.bounds.spm_bytes_floor(sizes)
        assert spm <= point.spm_bytes
        dma = optimizer.bounds.dma_bytes_floor(
            sizes, assignment, solution.tile_sizes)
        assert dma <= point.dma_bytes
        assert solution.threads == point.cores


class TestFrontExactness:
    @settings(max_examples=8, deadline=None)
    @given(data=random_kernels(),
           spm_kib=st.sampled_from([1, 4, 128]),
           bus_div=st.sampled_from([1, 64]))
    def test_random_components(self, data, spm_kib, bus_div):
        kernel, vars_ = data
        tree = LoopTree.build(kernel)
        comp = component_at(tree, vars_)
        model = fit_component_model(comp)
        platform = Platform(spm_bytes=spm_kib * 1024).with_bus(
            16e9 / bus_div)
        with eight_cpus():
            result = _assert_exact_front(comp, model, platform)
            _assert_admissible_bounds(comp, model, platform, result.front)

    @pytest.mark.parametrize("fixture", ["lstm_small", "rnn_small"])
    def test_corpus_components(self, fixture, request):
        comp, model = request.getfixturevalue(fixture)
        with eight_cpus():
            result = _assert_exact_front(comp, model, Platform())
            _assert_admissible_bounds(comp, model, Platform(), result.front)
        assert result.front_size > 1      # a real trade-off surface

    def test_dominance_tier_fires_without_losing_members(
            self, maxpool_small):
        comp, model = maxpool_small
        with eight_cpus():
            result = _assert_exact_front(comp, model, Platform())
        assert result.dominance_pruned > 0
        assert (result.scored, result.dominance_pruned) == (1633, 465)

    def test_infeasible_space_has_an_empty_front(self, lstm_small):
        comp, model = lstm_small
        platform = Platform(spm_bytes=16)   # nothing fits 16 bytes
        with eight_cpus():
            result = ParetoOptimizer(comp, platform, model).optimize()
        assert result.front == ()
        assert result.best is None

    def test_space_guard_still_applies(self, lstm_small):
        comp, model = lstm_small
        with eight_cpus(), pytest.raises(SearchSpaceTooLarge):
            ParetoOptimizer(
                comp, Platform(), model, max_points=3).optimize()


class TestScalarizedWinners:
    """The weighted winners over the front, one per ``DEFAULT_WEIGHTS``
    vector, pinned to those the sweep once picked over every scored
    point."""

    GOLDEN = {
        "lstm_small": [(4, 8, 14, 1), (4, 8, 1, 1), (4, 8, 4, 1),
                       (4, 8, 4, 1), (4, 8, 4, 1)],
        "rnn_small": [(4, 8, 14, 1), (4, 8, 1, 1), (4, 8, 4, 1),
                      (4, 8, 4, 1), (4, 8, 4, 1)],
        "maxpool_small": [(1, 1, 1, 2, 4, 4, 16, 1, 2, 1),
                          (1, 1, 1, 1, 1, 2, 4, 4, 2, 1),
                          (1, 1, 1, 1, 1, 8, 16, 1, 2, 1),
                          (1, 1, 1, 1, 1, 8, 16, 1, 2, 1),
                          (1, 1, 1, 1, 1, 8, 16, 1, 2, 1)],
    }

    @pytest.mark.parametrize("fixture", sorted(GOLDEN))
    def test_pinned_winners(self, fixture, request):
        comp, model = request.getfixturevalue(fixture)
        with eight_cpus():
            result = ParetoOptimizer(comp, Platform(), model).optimize()
        assert [scalarize(result.front, weights).point.flat
                for weights in DEFAULT_WEIGHTS] == self.GOLDEN[fixture]


class TestDeterminism:
    """Front AND counters bit-identical across every execution toggle."""

    GOLDEN = {"lstm_small": (36, 0), "rnn_small": (36, 0)}

    @pytest.mark.parametrize("fixture", sorted(GOLDEN))
    def test_golden_counters(self, fixture, request):
        comp, model = request.getfixturevalue(fixture)
        with eight_cpus():
            result = ParetoOptimizer(comp, Platform(), model).optimize()
        assert (result.scored, result.dominance_pruned) == \
            self.GOLDEN[fixture]

    def test_vectorize_toggle(self, rnn_small):
        comp, model = rnn_small
        with eight_cpus():
            on = ParetoOptimizer(
                comp, Platform(), model, vectorize=True).optimize()
            off = ParetoOptimizer(
                comp, Platform(), model, vectorize=False).optimize()
        assert _front_key(on) == _front_key(off)
        assert _counters(on) == _counters(off)

    def test_cold_vs_warm_cache(self, rnn_small, tmp_path):
        comp, model = rnn_small
        with eight_cpus():
            cold = ParetoOptimizer(
                comp, Platform(), model,
                cache=PersistentCache(tmp_path)).optimize()
            warm = ParetoOptimizer(
                comp, Platform(), model,
                cache=PersistentCache(tmp_path)).optimize()
        assert _front_key(cold) == _front_key(warm)
        assert _counters(cold) == _counters(warm)
        assert warm.evaluations == 0      # every survivor was cached

    @needs_fork
    def test_parallel_matches_serial(self, rnn_small):
        comp, model = rnn_small
        with eight_cpus():
            serial = ParetoOptimizer(
                comp, Platform(), model, jobs=1).optimize()
            parallel = ParetoOptimizer(
                comp, Platform(), model, jobs=2).optimize()
        assert _front_key(serial) == _front_key(parallel)
        assert _counters(serial) == _counters(parallel)


class TestKernelFront:
    def test_composes_tree_choices(self):
        tree = LoopTree.build(make_kernel("rnn", "SMALL"))
        platform = Platform()

        def optimize_fn(component, exec_model):
            return ParetoOptimizer(
                component, platform, exec_model).optimize()

        with eight_cpus():
            result = TreeOptimizer(tree).optimize(
                platform, optimize_fn=optimize_fn)
        front = kernel_front(result.choices)
        assert front
        vectors = [p.objectives for p in front]
        for i, mine in enumerate(vectors):
            for j, other in enumerate(vectors):
                if i != j:
                    assert not dominates_vector(mine, other)
        # The composed fastest point reproduces Algorithm 2's makespan.
        assert front[0].makespan_ns == pytest.approx(result.makespan_ns)
        assert all(len(p.picks) == len(result.choices) for p in front)

    def test_rejects_non_pareto_choices(self):
        tree = LoopTree.build(make_kernel("rnn", "SMALL"))
        with eight_cpus():
            result = TreeOptimizer(tree).optimize(Platform())
        with pytest.raises(ValueError, match="pareto"):
            kernel_front(result.choices)


class TestObjectiveNames:
    def test_vector_order_matches_point_fields(self):
        point = _point(1.0, 2, 3, 4, (0,))
        assert OBJECTIVES == ("makespan_ns", "spm_bytes",
                              "dma_bytes", "cores")
        assert point.objectives == tuple(
            getattr(point, name) for name in OBJECTIVES)
