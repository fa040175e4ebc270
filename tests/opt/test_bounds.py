"""Admissibility of the closed-form candidate lower bounds.

The whole branch-and-bound contract rests on one property: for every
candidate ``(R, K)`` point, ``quick_bound`` and ``refine`` never exceed
the makespan the segment planner actually produces, and an infinite
bound (or an ``exact_infeasible`` reason) implies the planner rejects
the candidate too.  These tests check that property point by point over
complete small candidate spaces — no sampling, no tolerance.
"""

import math
from itertools import product

import pytest

from repro.kernels import make_kernel
from repro.loopir import LoopTree
from repro.loopir.component import component_at
from repro.opt.bounds import BoundCalculator, chain_lower_bound, flatten_key
from repro.opt.exhaustive import assignment_candidates
from repro.opt.solution import Solution
from repro.opt.threadgroups import generate_nondominated_thread_groups
from repro.schedule.makespan import MakespanEvaluator
from repro.sim.profiler import fit_component_model
from repro.timing.platform import Platform


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


def _walk(comp, model, platform, cores=8):
    """Yield (solution-or-None, sizes, assignment, quick, refined, truth)."""
    evaluator = MakespanEvaluator(comp, platform, model)
    bounds = BoundCalculator(
        comp, platform, model, modes=evaluator.planner.modes)
    for assignment in generate_nondominated_thread_groups(cores, comp):
        groups, lists = assignment_candidates(comp, assignment)
        for sizes in product(*lists):
            quick = bounds.quick_bound(sizes, assignment)
            refined = quick if math.isinf(quick) else \
                bounds.refine(quick, sizes, assignment)
            truth = evaluator.evaluate_params(
                dict(zip((n.var for n in comp.nodes), sizes)), groups)
            yield bounds, sizes, assignment, quick, refined, truth


class TestAdmissibility:
    @pytest.mark.parametrize("fixture", ["lstm_small", "rnn_small"])
    def test_bounds_never_exceed_true_makespan(self, fixture, request):
        comp, model = request.getfixturevalue(fixture)
        checked = 0
        for _, sizes, assignment, quick, refined, truth in _walk(
                comp, model, Platform()):
            if truth.feasible:
                assert quick <= truth.makespan_ns, (sizes, assignment)
                assert refined <= truth.makespan_ns, (sizes, assignment)
                assert quick <= refined
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("fixture", ["lstm_small", "rnn_small"])
    def test_infinite_bound_implies_planner_rejects(self, fixture, request):
        comp, model = request.getfixturevalue(fixture)
        for _, sizes, assignment, quick, refined, truth in _walk(
                comp, model, Platform()):
            if math.isinf(refined):
                assert not truth.feasible, (sizes, assignment)

    def test_admissible_under_slow_bus(self, lstm_small):
        # A slow bus turns the search DMA-bound, exercising the
        # event-count term rather than the compute path.
        comp, model = lstm_small
        checked = 0
        for _, sizes, assignment, quick, refined, truth in _walk(
                comp, model, Platform().with_bus(16e9 / 256)):
            if truth.feasible:
                assert refined <= truth.makespan_ns, (sizes, assignment)
                checked += 1
        assert checked > 0


class TestExactInfeasible:
    @pytest.mark.parametrize("fixture", ["lstm_small", "rnn_small"])
    def test_reason_implies_infeasible(self, fixture, request):
        """Every exact_infeasible reason is a true implication — the
        evaluator must agree, decision for decision (the greedy baseline
        relies on this to skip plans without changing its choices)."""
        comp, model = request.getfixturevalue(fixture)
        vars_ = [n.var for n in comp.nodes]
        for bounds, sizes, assignment, quick, refined, truth in _walk(
                comp, model, Platform()):
            reason = bounds.exact_infeasible(
                dict(zip(vars_, sizes)),
                dict(zip(vars_, assignment)))
            if reason is not None:
                assert not truth.feasible, (sizes, assignment, reason)

    def test_invalid_parameters_are_reported(self, lstm_small):
        comp, model = lstm_small
        bounds = BoundCalculator(comp, Platform(), model)
        vars_ = [n.var for n in comp.nodes]
        n0 = comp.nodes[0].N
        too_big = dict(zip(vars_, [n0 + 1] + [1] * (len(vars_) - 1)))
        assert bounds.exact_infeasible(too_big, None) is not None


class TestFlattenKey:
    def test_orders_like_solution_key(self, lstm_small):
        comp, _ = lstm_small
        vars_ = [n.var for n in comp.nodes]
        points = []
        for assignment in generate_nondominated_thread_groups(8, comp):
            groups, lists = assignment_candidates(comp, assignment)
            for sizes in product(*lists):
                try:
                    sol = Solution(comp, dict(zip(vars_, sizes)), groups)
                except ValueError:
                    continue
                flat = tuple(x for k, r in zip(sizes, assignment)
                             for x in (k, r))
                assert flatten_key(sol.key()) == flat
                points.append((sol.key(), flat))
        points.sort()
        flats = [flat for _, flat in points]
        assert flats == sorted(flats)


class TestChainLowerBound:
    def test_floor_below_every_feasible_makespan(self, lstm_small):
        comp, model = lstm_small
        platform = Platform()
        floor = chain_lower_bound(comp, platform, model, platform.cores)
        assert floor > 0.0
        for _, sizes, assignment, quick, refined, truth in _walk(
                comp, model, platform):
            if truth.feasible:
                assert floor <= truth.makespan_ns, (sizes, assignment)
