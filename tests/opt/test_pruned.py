"""Winner parity of the bound-driven search.

The contract under test: `PrunedOptimizer` returns the *bit-identical*
winner — same makespan, same solution key, same feasibility — as the
unpruned `ExhaustiveOptimizer`, on any component, serial or parallel,
cold or against a warm persistent cache.  The evaluation count is
exactly what pruning reduces, so it is deliberately outside the winner
contract; it is deterministic, though, and pinned separately.
"""

import math
import multiprocessing
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import make_kernel
from repro.loopir import LoopTree
from repro.loopir.component import component_at
from repro.opt import bounds as bounds_mod
from repro.opt import tree as tree_mod
from repro.opt.cache import PersistentCache
from repro.opt.exhaustive import ExhaustiveOptimizer, SearchSpaceTooLarge
from repro.opt.greedy import GreedyOptimizer
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


def _winner(result):
    if result.best is None or not result.best.feasible:
        return None
    return result.best.makespan_ns, result.best.solution.key()


def _assert_parity(exhaustive, pruned):
    assert _winner(exhaustive) == _winner(pruned)
    assert exhaustive.feasible == pruned.feasible
    assert exhaustive.component is pruned.component
    assert exhaustive.assignments_tried == pruned.assignments_tried
    # Evaluation counts and the cache-sourced byte hints are deliberately
    # outside the contract: fewer evaluations is the whole point, and the
    # hints are only populated on persistent-cache hits.


# -- random small components ----------------------------------------------


class TestWinnerParity:
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
            exhaustive = ExhaustiveOptimizer(
                comp, platform, model, max_points=10**9).optimize()
            cold = PrunedOptimizer(comp, platform, model).optimize()
            _assert_parity(exhaustive, cold)
            with tempfile.TemporaryDirectory() as directory:
                cache = PersistentCache(directory)
                first = PrunedOptimizer(
                    comp, platform, model, cache=cache).optimize()
                warm = PrunedOptimizer(
                    comp, platform, model,
                    cache=PersistentCache(directory)).optimize()
            _assert_parity(exhaustive, first)
            _assert_parity(exhaustive, warm)

    @pytest.mark.parametrize("fixture", ["lstm_small", "rnn_small"])
    def test_corpus_components(self, fixture, request):
        comp, model = request.getfixturevalue(fixture)
        platform = Platform()
        with eight_cpus():
            exhaustive = ExhaustiveOptimizer(
                comp, platform, model, max_points=10**9).optimize()
            pruned = PrunedOptimizer(comp, platform, model).optimize()
        _assert_parity(exhaustive, pruned)
        assert pruned.pruned > 0      # the bound tier actually fired

    def test_infeasible_space_has_no_winner(self, lstm_small):
        comp, model = lstm_small
        platform = Platform(spm_bytes=16)   # nothing fits 16 bytes
        with eight_cpus():
            exhaustive = ExhaustiveOptimizer(
                comp, platform, model, max_points=10**9).optimize()
            pruned = PrunedOptimizer(comp, platform, model).optimize()
        assert exhaustive.best is None
        assert pruned.best is None
        _assert_parity(exhaustive, pruned)

    @needs_fork
    def test_parallel_matches_serial(self, lstm_small):
        comp, model = lstm_small
        platform = Platform()
        with eight_cpus():
            serial = PrunedOptimizer(comp, platform, model).optimize()
            parallel = PrunedOptimizer(
                comp, platform, model, jobs=2).optimize()
        _assert_parity(serial, parallel)

    def test_space_guard_still_applies(self, lstm_small):
        comp, model = lstm_small
        with eight_cpus(), pytest.raises(SearchSpaceTooLarge):
            PrunedOptimizer(
                comp, Platform(), model, max_points=3).optimize()


def _counters(result):
    return (result.evaluations, result.pruned, result.bound_hits,
            result.batched)


class TestGoldenCounters:
    """The evaluated/pruned split is outside the winner contract, but it
    is deterministic, so it is pinned: cold, then warm against the
    cold run's cache, with the batched walk (windows doubling from 16)
    and the per-candidate walk."""

    GOLDEN = {
        ("lstm_small", True): [(24, 12, 0, 24), (0, 12, 2, 0)],
        ("lstm_small", False): [(24, 12, 0, 0), (0, 12, 2, 0)],
        ("rnn_small", True): [(16, 20, 0, 16), (0, 20, 0, 0)],
        ("rnn_small", False): [(14, 22, 0, 0), (0, 22, 0, 0)],
    }

    @pytest.mark.parametrize("fixture,vectorize", sorted(GOLDEN))
    def test_cold_and_warm_counters(self, fixture, vectorize, request,
                                    tmp_path):
        comp, model = request.getfixturevalue(fixture)
        got = [_counters(PrunedOptimizer(
            comp, Platform(), model, vectorize=vectorize,
            cache=PersistentCache(tmp_path)).optimize())
            for _ in range(2)]
        assert got == self.GOLDEN[fixture, vectorize]

    @needs_fork
    @pytest.mark.parametrize("fixture", ["lstm_small", "rnn_small"])
    def test_jobs_do_not_change_counters(self, fixture, request):
        # Workers only score whole windows; every screen decision is
        # made in the parent at window boundaries.
        comp, model = request.getfixturevalue(fixture)
        with eight_cpus():
            serial = PrunedOptimizer(
                comp, Platform(), model, jobs=1).optimize()
            parallel = PrunedOptimizer(
                comp, Platform(), model, jobs=2).optimize()
        assert _winner(serial) == _winner(parallel)
        assert _counters(serial) == _counters(parallel)


class TestBoundEntries:
    """Persistent-cache plumbing for pruned candidates."""

    def test_bound_then_result_round_trip(self, tmp_path):
        cache = PersistentCache(tmp_path)
        assert cache.put_bound("d1", 123.0) is True
        assert cache.put_bound("d1", 456.0) is False   # already known
        assert cache.get_result("d1") is None          # bound-only entry
        cache.put("d1", makespan_ns=99.0, feasible=True)
        entry = cache.get_result("d1")
        assert entry is not None and entry["m"] == 99.0   # upgraded
        assert cache.stats()["bound_entries"] == 0
        # The upgrade survives a reload: the result line shadows the
        # bound line (last line wins).
        reloaded = PersistentCache(tmp_path)
        assert reloaded.get_result("d1")["m"] == 99.0

    def test_bound_entries_survive_reload(self, tmp_path):
        cache = PersistentCache(tmp_path)
        cache.put_bound("d2", math.inf)
        reloaded = PersistentCache(tmp_path)
        assert reloaded.put_bound("d2", math.inf) is False
        assert reloaded.get_result("d2") is None
        assert reloaded.stats()["bound_entries"] == 1

    def test_warm_rerun_reports_bound_hits(self, lstm_small, tmp_path):
        comp, model = lstm_small
        platform = Platform()
        with eight_cpus():
            cold = PrunedOptimizer(
                comp, platform, model,
                cache=PersistentCache(tmp_path)).optimize()
            persisted = PersistentCache(tmp_path).stats()["bound_entries"]
            warm = PrunedOptimizer(
                comp, platform, model,
                cache=PersistentCache(tmp_path)).optimize()
        _assert_parity(cold, warm)
        assert cold.bound_hits == 0          # nothing to recognise yet
        # The serial walk is deterministic, so the warm run re-prunes
        # exactly the candidates whose bounds the cold run persisted
        # (enumeration-time and sorted-tail prunes never hit the cache).
        assert warm.bound_hits == persisted
        assert warm.evaluations == 0         # all survivors were cached


class TestGreedyIdentity:
    @pytest.mark.parametrize("fixture", ["lstm_small", "rnn_small"])
    def test_precheck_never_changes_decisions(self, fixture, request):
        comp, model = request.getfixturevalue(fixture)
        platform = Platform()
        with eight_cpus():
            fast = GreedyOptimizer(comp, platform, model).optimize()
            with mock.patch.object(
                    bounds_mod.BoundCalculator, "exact_infeasible",
                    lambda self, sizes, groups: None):
                slow = GreedyOptimizer(comp, platform, model).optimize()
        assert _winner(fast) == _winner(slow)
        assert slow.pruned == 0


class TestTreeChainSkip:
    def test_skip_never_changes_the_plan(self):
        tree = LoopTree.build(make_kernel("lstm", "SMALL"))
        with eight_cpus():
            optimizer = TreeOptimizer(tree)
            with_bound = optimizer.optimize(Platform())
            with mock.patch.object(
                    tree_mod, "chain_lower_bound",
                    lambda *args: 0.0):
                never_skip = TreeOptimizer(tree).optimize(Platform())
        assert with_bound.makespan_ns == never_skip.makespan_ns
        assert [c.component.band_vars for c in with_bound.choices] == \
            [c.component.band_vars for c in never_skip.choices]
        assert never_skip.chains_pruned == 0

    def test_skip_mechanism_fires_on_branch_nodes(self):
        # Forcing the floor to infinity must skip every branch-node
        # parent chain; the result is then the pure children
        # decomposition, which is never better than the free choice.
        tree = LoopTree.build(make_kernel("lstm", "SMALL"))
        with eight_cpus():
            free = TreeOptimizer(tree).optimize(Platform())
            with mock.patch.object(
                    tree_mod, "chain_lower_bound",
                    lambda *args: math.inf):
                forced = TreeOptimizer(tree).optimize(Platform())
        assert forced.chains_pruned > 0
        assert forced.makespan_ns >= free.makespan_ns
