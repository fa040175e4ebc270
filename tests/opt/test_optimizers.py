"""Algorithm 1 / Algorithm 2 / greedy optimizer behaviour tests."""

import itertools
import math

import pytest

from repro.kernels import make_kernel
from repro.loopir import LoopTree
from repro.loopir.component import component_at
from repro.opt.component import ComponentOptimizer
from repro.opt.greedy import GreedyOptimizer
from repro.opt.ideal import ideal_makespan_ns
from repro.opt.solution import Solution
from repro.opt.tilesizes import select_tile_sizes
from repro.opt.tree import TreeOptimizer
from repro.schedule.makespan import MakespanEvaluator
from repro.sim.machine import MachineModel
from repro.sim.profiler import fit_component_model
from repro.timing.platform import Platform


@pytest.fixture(scope="module")
def lstm_tree():
    return LoopTree.build(make_kernel("lstm", "LARGE"))


@pytest.fixture(scope="module")
def lstm_comp(lstm_tree):
    return component_at(lstm_tree, ["s1_0", "p"])


@pytest.fixture(scope="module")
def lstm_model(lstm_comp):
    return fit_component_model(lstm_comp)


class TestComponentOptimizer:
    def test_finds_feasible_solution(self, lstm_comp, lstm_model):
        optimizer = ComponentOptimizer(lstm_comp, Platform(), lstm_model)
        result = optimizer.optimize(8)
        assert result.feasible
        assert result.best.solution.threads <= 8
        assert result.evaluations > 0

    def test_close_to_exhaustive_on_small_component(self, lstm_tree):
        """The heuristic must land within 10% of the exhaustive optimum
        over its own candidate space (single level: convex search)."""
        comp = component_at(lstm_tree, ["b_0"])
        model = fit_component_model(comp)
        platform = Platform()
        evaluator = MakespanEvaluator(comp, platform, model)
        best = math.inf
        for r in (1, 2, 4, 8):
            for k in select_tile_sizes(comp.nodes[0].N, r):
                res = evaluator.evaluate_params({"b_0": k}, {"b_0": r})
                if res.feasible:
                    best = min(best, res.makespan_ns)
        optimizer = ComponentOptimizer(comp, platform, model)
        result = optimizer.optimize(8)
        assert result.makespan_ns <= best * 1.10

    def test_deterministic_given_seed(self, lstm_comp, lstm_model):
        a = ComponentOptimizer(
            lstm_comp, Platform(), lstm_model, seed=1).optimize(8)
        b = ComponentOptimizer(
            lstm_comp, Platform(), lstm_model, seed=1).optimize(8)
        assert a.best.solution.key() == b.best.solution.key()

    def test_single_core_forces_r1(self, lstm_comp, lstm_model):
        result = ComponentOptimizer(
            lstm_comp, Platform(), lstm_model).optimize(1)
        assert result.feasible
        assert result.best.solution.threads == 1

    def test_more_cores_never_worse(self, lstm_comp, lstm_model):
        one = ComponentOptimizer(
            lstm_comp, Platform(), lstm_model).optimize(1)
        eight = ComponentOptimizer(
            lstm_comp, Platform(), lstm_model).optimize(8)
        assert eight.makespan_ns <= one.makespan_ns * 1.01


class TestGreedy:
    def test_cnn_greedy_tiles_p(self):
        """Section 6.3.1: greedy cannot fit a k-level tile (inp_F's full
        c/p/q footprint), so it tiles p with k parallelized across cores
        and K_k = 1 per segment."""
        tree = LoopTree.build(make_kernel("cnn", "LARGE"))
        comp = component_at(tree, ["n", "k", "p", "q", "c"])
        model = fit_component_model(comp)
        result = GreedyOptimizer(comp, Platform(), model).optimize(8)
        assert result.feasible
        solution = result.best.solution
        assert solution.level("k").K == 1
        assert solution.level("k").R == 8
        # The paper reports K_p = 2; with our (slightly different) SPM
        # bookkeeping the largest fitting tile is within one of that.
        assert solution.level("p").K in (2, 3)
        assert solution.level("q").K == tree.node_by_var("q").N
        assert solution.level("c").K == tree.node_by_var("c").N

    def test_greedy_never_beats_heuristic_at_slow_bus(self):
        """Figure 6.1 / Section 6.3.1: at low bandwidth the heuristic wins
        decisively (paper reports ~10x on the GoogLeNet CNN layer)."""
        tree = LoopTree.build(make_kernel("cnn", "LARGE"))
        comp = component_at(tree, ["n", "k", "p", "q", "c"])
        model = fit_component_model(comp)
        slow = Platform().with_bus(1e9 / 32)
        greedy = GreedyOptimizer(comp, slow, model).optimize(8)
        heuristic = ComponentOptimizer(comp, slow, model).optimize(8)
        assert heuristic.makespan_ns < greedy.makespan_ns
        assert greedy.makespan_ns / heuristic.makespan_ns > 3.0

    def test_greedy_lstm_feasible(self, lstm_comp, lstm_model):
        result = GreedyOptimizer(
            lstm_comp, Platform(), lstm_model).optimize(8)
        assert result.feasible


class TestTreeOptimizer:
    def test_lstm_uses_children_decomposition(self, lstm_tree):
        optimizer = TreeOptimizer(lstm_tree)
        result = optimizer.optimize(Platform())
        labels = {c.component.label() for c in result.choices}
        assert labels == {"(s1_0, p)", "(s1_1, s2)", "(b_0)", "(b_1)"}

    def test_lstm_total_is_sum_of_components(self, lstm_tree):
        result = TreeOptimizer(lstm_tree).optimize(Platform())
        total = sum(c.total_makespan_ns for c in result.choices)
        assert result.makespan_ns == pytest.approx(total)

    def test_cnn_single_chain(self):
        tree = LoopTree.build(make_kernel("cnn", "LARGE"))
        result = TreeOptimizer(tree).optimize(Platform())
        assert len(result.choices) == 1
        assert result.choices[0].component.label() == "(n, k, p, q, c)"

    def test_exec_models_cached_across_platforms(self, lstm_tree):
        optimizer = TreeOptimizer(lstm_tree)
        optimizer.optimize(Platform())
        models_after_first = dict(optimizer._models)
        optimizer.optimize(Platform().with_bus(1e9))
        assert optimizer._models.keys() == models_after_first.keys()
        for key, model in models_after_first.items():
            assert optimizer._models[key] is model

    def test_counts_every_search_including_rejected_chains(self):
        # lstm/SMALL: Algorithm 2 optimizes a parent chain and then keeps
        # its children instead; that search's work still counts.
        tree = LoopTree.build(make_kernel("lstm", "SMALL"))
        searches = []

        def recording(component, exec_model):
            search = ComponentOptimizer(component, Platform(), exec_model)
            searches.append(search.optimize())
            return searches[-1]

        result = TreeOptimizer(tree).optimize(
            Platform(), optimize_fn=recording)
        chosen = sum(c.result.evaluations for c in result.choices)
        assert len(searches) > len(result.choices)
        assert result.evaluations == sum(s.evaluations for s in searches)
        assert result.evaluations > chosen
        assert result.metrics.memo_hits == \
            sum(s.metrics.memo_hits for s in searches)

    def test_describe(self, lstm_tree):
        result = TreeOptimizer(lstm_tree).optimize(Platform())
        text = result.describe()
        assert "lstm" in text
        assert "(s1_0, p)" in text


class TestIdeal:
    def test_positive_and_scales(self):
        platform = Platform()
        mini = ideal_makespan_ns(make_kernel("cnn", "MINI"), platform)
        small = ideal_makespan_ns(make_kernel("cnn", "SMALL"), platform)
        assert 0 < mini < small

    def test_any_schedule_at_least_ideal_over_cores(self):
        """Sanity: no PREM schedule can beat ideal work / P."""
        kernel = make_kernel("lstm", "LARGE")
        tree = LoopTree.build(kernel)
        platform = Platform()
        result = TreeOptimizer(tree).optimize(platform)
        ideal = ideal_makespan_ns(kernel, platform)
        assert result.makespan_ns >= ideal / platform.cores
