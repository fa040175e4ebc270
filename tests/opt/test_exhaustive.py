"""Exhaustive-search tests and heuristic optimality-gap measurement."""

import pytest

from repro.kernels import make_kernel
from repro.loopir import LoopTree
from repro.loopir.component import component_at
from repro.opt.component import ComponentOptimizer
from repro.opt.exhaustive import (
    ExhaustiveOptimizer,
    SearchSpaceTooLarge,
    search_space_size,
)
from repro.sim.profiler import fit_component_model
from repro.timing.platform import Platform


@pytest.fixture(scope="module")
def lstm_tree():
    return LoopTree.build(make_kernel("lstm", "LARGE"))


class TestSearchSpace:
    def test_size_counts_all_points(self, lstm_tree):
        comp = component_at(lstm_tree, ["b_0"])
        size = search_space_size(comp, 8)
        # one level, assignments (8,),(4?)... nondominated = (8,)? No:
        # (8,) dominates everything, so exactly one assignment remains.
        from repro.opt.threadgroups import \
            generate_nondominated_thread_groups
        from repro.opt.tilesizes import select_tile_sizes
        assignments = generate_nondominated_thread_groups(8, comp)
        expected = sum(
            len(select_tile_sizes(comp.nodes[0].N, a[0]))
            for a in assignments)
        assert size == expected

    def test_deep_component_refused(self):
        tree = LoopTree.build(make_kernel("cnn", "LARGE"))
        comp = component_at(tree, ["n", "k", "p", "q", "c"])
        model = fit_component_model(comp)
        optimizer = ExhaustiveOptimizer(
            comp, Platform(), model, max_points=1000)
        with pytest.raises(SearchSpaceTooLarge):
            optimizer.optimize(8)


class TestOptimalityGap:
    @pytest.mark.parametrize("band", [["b_0"], ["b_1"]])
    def test_heuristic_matches_exhaustive_on_1d(self, lstm_tree, band):
        comp = component_at(lstm_tree, band)
        model = fit_component_model(comp)
        platform = Platform()
        exact = ExhaustiveOptimizer(comp, platform, model).optimize(8)
        heuristic = ComponentOptimizer(comp, platform, model).optimize(8)
        assert exact.feasible and heuristic.feasible
        assert heuristic.makespan_ns <= exact.makespan_ns * 1.02

    def test_heuristic_gap_on_2d_component(self, lstm_tree):
        """Section 4.3's promise: 'solutions close to the optimal'."""
        comp = component_at(lstm_tree, ["s1_0", "p"])
        model = fit_component_model(comp)
        platform = Platform()
        # The batch-exact evaluator scores the 936-point reference far
        # faster than the scalar planner, with the same winner and count.
        exact = ExhaustiveOptimizer(
            comp, platform, model, max_points=20_000,
            vectorize=True).optimize(8)
        heuristic = ComponentOptimizer(comp, platform, model).optimize(8)
        assert heuristic.makespan_ns <= exact.makespan_ns * 1.10
        # and by definition the exhaustive result is a lower bound.
        assert exact.makespan_ns <= heuristic.makespan_ns * 1.0 + 1e-6 \
            or exact.makespan_ns <= heuristic.makespan_ns

    def test_exhaustive_never_worse(self, lstm_tree):
        comp = component_at(lstm_tree, ["b_0"])
        model = fit_component_model(comp)
        platform = Platform().with_bus(1e9 / 8)
        exact = ExhaustiveOptimizer(comp, platform, model).optimize(8)
        heuristic = ComponentOptimizer(comp, platform, model).optimize(8)
        assert exact.makespan_ns <= heuristic.makespan_ns + 1e-6
