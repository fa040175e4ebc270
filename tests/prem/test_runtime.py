"""Functional PREM VM tests: the transformed schedule must compute exactly
what the original sequential program computes, for every kernel and for a
variety of tilings — including parallelized, boundary-heavy and
single-buffer-degenerate ones."""

import numpy as np
import pytest

from repro.compiler import PremCompiler
from repro.kernels import make_kernel
from repro.loopir import LoopTree
from repro.loopir.builder import for_, kernel_, stmt_
from repro.loopir.component import component_at
from repro.opt.solution import Solution
from repro.poly.access import Array
from repro.prem.runtime import (
    PremRuntime,
    SequentialInterpreter,
    SpmBufferView,
    init_arrays,
    run_kernel_prem,
)
from repro.timing.platform import Platform


def reference(kernel, seed=3):
    arrays = init_arrays(kernel, seed)
    SequentialInterpreter().run(kernel, arrays)
    return arrays


def assert_memories_equal(expected, actual):
    for name in expected:
        np.testing.assert_allclose(
            actual[name], expected[name], rtol=1e-5, atol=1e-6,
            err_msg=f"array {name} diverged")


class TestSpmBufferView:
    def test_translation(self):
        buf = np.zeros((3, 4))
        view = SpmBufferView("a", buf, (10, 20), (3, 4))
        view[11, 21] = 5.0
        assert buf[1, 1] == 5.0
        assert view[11, 21] == 5.0

    def test_out_of_range_rejected(self):
        view = SpmBufferView("a", np.zeros((3,)), (10,), (3,))
        with pytest.raises(IndexError):
            view[(9,)]
        with pytest.raises(IndexError):
            view[(13,)]

    def test_rank_mismatch_rejected(self):
        view = SpmBufferView("a", np.zeros((3, 3)), (0, 0), (3, 3))
        with pytest.raises(IndexError):
            view[(1,)]


class TestComponentRuntime:
    def run_component(self, kernel_name, band, sizes, groups=None):
        kernel = make_kernel(kernel_name, "MINI")
        tree = LoopTree.build(kernel)
        comp = component_at(tree, band)
        solution = Solution(comp, sizes, groups)
        expected = reference(kernel)
        arrays = init_arrays(kernel, 3)
        run_kernel_prem(kernel, {band[0]: (comp, solution)}, arrays)
        return kernel, expected, arrays

    def test_cnn_parallel_tiling(self):
        _, expected, actual = self.run_component(
            "cnn", ["n", "k", "p", "q", "c"],
            {"n": 1, "k": 1, "p": 2, "q": 2, "c": 2},
            {"n": 1, "k": 2, "p": 2, "q": 1, "c": 1})
        assert_memories_equal(expected, actual)

    def test_cnn_boundary_tiles(self):
        # MINI: k=4, p=4, q=4, c=3 — sizes 3/3/3/2 leave remainders.
        _, expected, actual = self.run_component(
            "cnn", ["n", "k", "p", "q", "c"],
            {"n": 1, "k": 3, "p": 3, "q": 3, "c": 2})
        assert_memories_equal(expected, actual)

    def test_maxpool_window_fold(self):
        _, expected, actual = self.run_component(
            "maxpool", ["n", "k", "p", "q", "r"],
            {"n": 1, "k": 1, "p": 2, "q": 2, "r": 2},
            {"n": 1, "k": 3, "p": 1, "q": 1, "r": 1})
        assert_memories_equal(expected, actual)

    def test_sumpool_sequential(self):
        _, expected, actual = self.run_component(
            "sumpool", ["n", "k", "p", "q", "r"],
            {"n": 1, "k": 2, "p": 4, "q": 2, "r": 2})
        assert_memories_equal(expected, actual)

    def test_rnn_sequential_recurrence(self):
        _, expected, actual = self.run_component(
            "rnn", ["t"], {"t": 3})
        assert_memories_equal(expected, actual)

    def test_single_tile_degenerates_to_one_segment(self):
        kernel = make_kernel("cnn", "MINI")
        tree = LoopTree.build(kernel)
        comp = component_at(tree, ["n", "k", "p", "q", "c"])
        sizes = {v: tree.node_by_var(v).N
                 for v in ("n", "k", "p", "q", "c")}
        solution = Solution(comp, sizes)
        expected = reference(kernel)
        arrays = init_arrays(kernel, 3)
        run_kernel_prem(kernel, {"n": (comp, solution)}, arrays)
        assert_memories_equal(expected, arrays)


class TestMultiComponentKernel:
    def test_lstm_children_decomposition(self):
        """All four LSTM sub-components run as separate PREM schedules
        under the sequential time loop."""
        kernel = make_kernel("lstm", "MINI")
        tree = LoopTree.build(kernel)
        ns, np_ = kernel.constants["NS"], kernel.constants["NP"]
        components = {}
        for band, sizes, groups in [
            (["s1_0", "p"], {"s1_0": 2, "p": 3}, {"s1_0": 2}),
            (["s1_1", "s2"], {"s1_1": 2, "s2": ns}, {"s1_1": 2}),
            (["b_0"], {"b_0": 2}, {"b_0": 2}),
            (["b_1"], {"b_1": 2}, {"b_1": 2}),
        ]:
            comp = component_at(tree, band)
            components[band[0]] = (comp, Solution(comp, sizes, groups))
        expected = reference(kernel)
        arrays = init_arrays(kernel, 3)
        run_kernel_prem(kernel, components, arrays)
        assert_memories_equal(expected, arrays)


def _increment(views, pt):
    views["A"][(pt["i"],)] += 1


def _double(views, pt):
    views["A"][(pt["i"],)] *= 2


class TestZeroTripLoops:
    """``LoopRange`` allows ``n == 0``: an empty loop is a no-op in the
    sequential interpreter, the VM's body walk and ``run_kernel_prem``."""

    def test_sequential_interpreter_skips_empty_loop(self):
        a = Array("A", (4,))
        s = stmt_("s", {"A": a}, writes={"A": ("i",)}, reads={"A": ("i",)},
                  compute=_increment)
        kernel = kernel_("zero_trip", [a], [for_("t", 2, for_("i", 0, s))])
        arrays = init_arrays(kernel)
        before = arrays["A"].copy()
        SequentialInterpreter().run(kernel, arrays)
        assert np.array_equal(arrays["A"], before)

    def test_vm_and_kernel_walk_skip_empty_loops(self):
        """An empty loop inside the component body (``j``) and one
        outside every component (``u``)."""
        a = Array("A", (4,))
        inc = stmt_("inc", {"A": a}, writes={"A": ("i",)},
                    reads={"A": ("i",)}, compute=_increment)
        dbl = stmt_("dbl", {"A": a}, writes={"A": ("i",)},
                    reads={"A": ("i",)}, compute=_double)
        idle = stmt_("idle", {"A": a}, writes={"A": ("v",)},
                     reads={"A": ("v",)}, compute=lambda views, pt: None)
        kernel = kernel_("zero_trip_vm", [a], [
            for_("t", 2, for_("i", 4, inc, for_("j", 0, dbl))),
            for_("u", 0, for_("v", 4, idle)),
        ])
        comp = component_at(LoopTree.build(kernel), ["i"])
        expected = init_arrays(kernel)
        SequentialInterpreter().run(kernel, expected)
        arrays = init_arrays(kernel)
        run_kernel_prem(kernel, {"i": (comp, Solution(comp, {"i": 2}))},
                        arrays)
        assert np.array_equal(arrays["A"], expected["A"])
        assert np.array_equal(arrays["A"], init_arrays(kernel)["A"] + 2)


class TestCompilerIntegration:
    @pytest.mark.parametrize("name",
                             ["cnn", "lstm", "maxpool", "sumpool", "rnn"])
    @pytest.mark.parametrize("spm", [2048, 8192])
    def test_compiled_program_matches_reference(self, name, spm):
        kernel = make_kernel(name, "MINI")
        result = PremCompiler(Platform(spm_bytes=spm)).compile(kernel)
        assert result.feasible
        expected = result.run_reference(seed=11)
        actual = result.run_functional(seed=11)
        assert_memories_equal(expected, actual)
