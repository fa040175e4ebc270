"""Tests for tilable components and the builder DSL."""

import pytest

from repro.kernels import make_kernel
from repro.loopir import LoopTree
from repro.loopir.builder import accesses_for, for_, stmt_
from repro.loopir.component import TilableComponent, component_at
from repro.poly.access import Array
from repro.poly.affine import aff


@pytest.fixture(scope="module")
def lstm_tree():
    return LoopTree.build(make_kernel("lstm", "SMALL"))


@pytest.fixture(scope="module")
def cnn_tree():
    return LoopTree.build(make_kernel("cnn", "SMALL"))


class TestComponent:
    def test_band_vars_and_depth(self, lstm_tree):
        comp = component_at(lstm_tree, ["s1_0", "p"])
        assert comp.band_vars == ("s1_0", "p")
        assert comp.depth == 2

    def test_executions_is_first_level_I(self, lstm_tree):
        nt = lstm_tree.kernel.constants["NT"]
        assert component_at(lstm_tree, ["s1_0", "p"]).executions == nt
        assert component_at(lstm_tree, ["s1_1", "s2"]).executions == nt - 1

    def test_outer_vars(self, lstm_tree):
        comp = component_at(lstm_tree, ["s1_0", "p"])
        assert comp.outer_vars() == ("t",)

    def test_arrays_and_inner_box_are_cached_and_read_only(self, cnn_tree):
        comp = component_at(cnn_tree, ["n", "k"])
        assert comp.arrays() is comp.arrays()
        assert comp.full_inner_box() is comp.full_inner_box()
        name = next(iter(comp.arrays()))
        var = next(iter(comp.full_inner_box()))
        with pytest.raises(TypeError):
            comp.arrays()[name] = None
        with pytest.raises(TypeError):
            comp.full_inner_box()[var] = (0, 0)

    def test_arrays_of_lstm_component(self, lstm_tree):
        names = set(component_at(lstm_tree, ["s1_0", "p"]).arrays())
        assert names == {"i", "f", "o", "g",
                         "U_i", "U_f", "U_o", "U_g", "inp_F"}

    def test_stmts(self, lstm_tree):
        comp = component_at(lstm_tree, ["s1_0", "p"])
        assert {s.name for s in comp.stmts()} == \
            {"lstm_init", "lstm_mac_u"}

    def test_non_chain_rejected(self, lstm_tree):
        t = lstm_tree.node_by_var("t")
        b1 = lstm_tree.node_by_var("b_1")
        s1 = lstm_tree.node_by_var("s1_0")
        with pytest.raises(ValueError):
            TilableComponent(lstm_tree, (s1, b1))
        # but t -> s1_0 is a legal chain step
        TilableComponent(lstm_tree, (t, s1))

    def test_empty_rejected(self, lstm_tree):
        with pytest.raises(ValueError):
            TilableComponent(lstm_tree, ())

    def test_inner_vars_of_folded_leaf(self, cnn_tree):
        comp = component_at(cnn_tree, ["n", "k", "p", "q", "c"])
        assert comp.inner_vars() == ("r", "s")
        box = comp.full_inner_box()
        assert box["r"] == (0, cnn_tree.kernel.constants["NR"] - 1)

    def test_accesses_by_array(self, cnn_tree):
        comp = component_at(cnn_tree, ["n", "k", "p", "q", "c"])
        pairs = comp.accesses("out_F")
        kinds = {a.kind for _, a in pairs}
        assert kinds == {"read", "write"}


class TestBuilderDsl:
    def test_accesses_for_multiple_reads_same_array(self):
        a = Array("h", (8,))
        accesses = accesses_for(
            {"h": a}, reads={"h": [("s2",), ("s3",)]})
        assert len(accesses) == 2

    def test_affine_string_subscripts(self):
        a = Array("inp", (8, 8))
        accesses = accesses_for(
            {"inp": a}, reads={"inp": ("2*p + r", "q")},
            constants={})
        assert accesses[0].indices[0] == aff("p") * 2 + aff("r")

    def test_unknown_array_rejected(self):
        with pytest.raises(KeyError):
            accesses_for({}, reads={"nope": ("i",)})

    def test_stmt_and_loop_shorthand(self):
        a = Array("a", (4,))
        s = stmt_("s", {"a": a}, writes={"a": ("i",)}, flops=3)
        loop = for_("i", 4, s, begin=1, stride=1)
        assert loop.begin == 1
        assert loop.child_stmts() == [s]
        assert s.flops == 3
