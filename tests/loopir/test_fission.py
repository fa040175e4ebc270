"""Tests for the dependence-verified loop-fission pre-pass."""

import numpy as np
import pytest

from repro.compiler import PremCompiler
from repro.kernels import make_kernel
from repro.loopir import analyze_dependences, fission_kernel, fission_plan
from repro.loopir.ast import Kernel
from repro.loopir.builder import for_, stmt_
from repro.loopir.fission import _partition, backward_blockers
from repro.poly.access import Array
from repro.poly.dependence import Dependence, DependenceAnalyzer
from repro.prem.runtime import SequentialInterpreter, init_arrays

ALL_KERNELS = ("cnn", "convrelu", "lstm", "maxpool", "sumpool", "rnn")

#: Kernels whose every nest is perfect (or whose imperfect levels are
#: glued by backward dependences): fission must refuse to touch them.
NOOP_KERNELS = ("cnn", "maxpool", "sumpool")


def make_dep(src, dst, shared, directions, loop_independent=False):
    return Dependence(
        src_stmt=src, dst_stmt=dst, array="a", kind="RAW",
        shared_loops=tuple(shared),
        directions=frozenset(tuple(d) for d in directions),
        loop_independent=loop_independent,
    )


class TestPartition:
    def test_no_blockers_fully_separates(self):
        assert _partition(3, []) == [[0], [1], [2]]

    def test_backward_edge_merges_span(self):
        dep = make_dep("S", "T", ("i",), [("<",)])
        groups = _partition(4, [(2, 0, dep)])
        assert groups == [[0, 1, 2], [3]]

    def test_adjacent_backward_edge(self):
        dep = make_dep("S", "T", ("i",), [("<",)])
        assert _partition(2, [(1, 0, dep)]) == [[0, 1]]

    def test_overlapping_spans_merge_transitively(self):
        dep = make_dep("S", "T", ("i",), [("<",)])
        groups = _partition(5, [(2, 1, dep), (4, 3, dep)])
        assert groups == [[0], [1, 2], [3, 4]]


class TestBackwardBlockers:
    UNITS = [("A",), ("B",), ("C",)]

    def test_forward_dep_is_no_blocker(self):
        deps = [make_dep("A", "C", ("i",), [("<",)])]
        assert backward_blockers(self.UNITS, "i", deps) == []

    def test_backward_dep_blocks(self):
        deps = [make_dep("C", "A", ("i",), [("<",)])]
        blockers = backward_blockers(self.UNITS, "i", deps)
        assert [(s, d) for s, d, _ in blockers] == [(2, 0)]

    def test_dep_confined_above_is_ignored(self):
        # Carried at t, '=' at i: fission at i cannot reorder it.
        deps = [make_dep("C", "A", ("t", "i"), [("<", "=")])]
        assert backward_blockers(self.UNITS, "i", deps) == []

    def test_same_unit_dep_is_ignored(self):
        deps = [make_dep("A", "A", ("i",), [("<",)])]
        assert backward_blockers(self.UNITS, "i", deps) == []


class TestFissionCorpus:
    @pytest.mark.parametrize("name", NOOP_KERNELS)
    def test_perfect_nests_are_untouched(self, name):
        kernel = make_kernel(name, "MINI")
        result = fission_kernel(kernel)
        assert not result.changed
        assert result.kernel is kernel

    def test_lstm_splits_init_from_mac(self):
        kernel = make_kernel("lstm", "MINI")
        splits = {s.var: s for s in fission_plan(kernel)}
        assert set(splits) == {"p", "s1_0"}
        assert splits["p"].groups == (
            ("lstm_init",), ("lstm_mac_u",))
        assert splits["s1_0"].new_vars == ("s1_0", "s1_0__f1")

    def test_lstm_t_loop_is_not_split(self):
        # The recurrence s_F[t-1] -> mac_w and the gate reuse across t
        # iterations are backward at t; distributing t would break them.
        kernel = make_kernel("lstm", "MINI")
        result = fission_kernel(kernel)
        assert len(result.kernel.roots) == 1
        assert result.kernel.roots[0].var == "t"

    def test_rnn_splits_projection_only(self):
        kernel = make_kernel("rnn", "MINI")
        splits = {s.var for s in fission_plan(kernel)}
        assert splits == {"p", "s1"}

    def test_convrelu_distributes_to_three_roots(self):
        kernel = make_kernel("convrelu", "MINI")
        result = fission_kernel(kernel)
        assert [r.var for r in result.kernel.roots] == \
            ["n", "n__f1", "n__f2"]
        assert {s.var for s in result.splits} == {"n", "k", "p", "q"}
        for split in result.splits:
            assert split.groups == (
                ("convrelu_init",), ("convrelu_mac",), ("convrelu_act",))

    def test_statement_names_never_duplicate(self):
        # Kernel.__post_init__ enforces unique names; re-walking the
        # fissioned kernel double-checks statements moved, not copied.
        kernel = make_kernel("convrelu", "MINI")
        fissioned = fission_kernel(kernel).kernel
        names = [s.name for s, _ in fissioned.walk_stmts()]
        assert sorted(names) == sorted(set(names))
        assert len(names) == len(list(kernel.walk_stmts()))

    def test_array_order_is_preserved(self):
        # init_arrays draws rng per array in insertion order, so the
        # bit-equality argument needs the order to survive fission.
        kernel = make_kernel("lstm", "MINI")
        fissioned = fission_kernel(kernel).kernel
        assert list(fissioned.arrays) == list(kernel.arrays)

    def test_renamed_maps_back_to_original(self):
        result = fission_kernel(make_kernel("convrelu", "MINI"))
        assert result.renamed["n__f1"] == "n"
        assert result.renamed["q__f2"] == "q"


class TestFreshNames:
    def test_collision_with_existing_loop_var(self):
        a = Array("a", (4,))
        b = Array("b", (4,))
        arrays = {"a": a, "b": b}
        s1 = stmt_("s1", arrays, writes={"a": ("i",)})
        s2 = stmt_("s2", arrays, writes={"b": ("i",)})
        s3 = stmt_("s3", arrays, writes={"b": ("i__f1",)},
                   reads={"b": ("i__f1",)})
        kernel = Kernel("k", [a, b], [
            for_("i", 4, s1, s2),
            for_("i__f1", 4, s3),
        ])
        result = fission_kernel(kernel)
        assert [r.var for r in result.kernel.roots] == \
            ["i", "i__f2", "i__f1"]


class TestSemanticsPreserved:
    @pytest.mark.parametrize("name", ALL_KERNELS)
    def test_sequential_vm_state_is_bit_identical(self, name):
        kernel = make_kernel(name, "MINI")
        result = fission_kernel(kernel)
        base = init_arrays(kernel, seed=7)
        fissioned = init_arrays(result.kernel, seed=7)
        SequentialInterpreter().run(kernel, base)
        SequentialInterpreter().run(result.kernel, fissioned)
        for array in base:
            assert np.array_equal(base[array], fissioned[array]), array

    @pytest.mark.parametrize("name", ("lstm", "rnn", "convrelu"))
    @pytest.mark.parametrize("strategy", ("heuristic", "greedy"))
    def test_compiled_prem_vm_matches_original(self, name, strategy):
        kernel = make_kernel(name, "MINI")
        result = PremCompiler().compile(
            kernel, strategy=strategy, fission="auto")
        assert result.fission is not None and result.fission.changed
        reference = init_arrays(kernel, seed=7)
        SequentialInterpreter().run(kernel, reference)
        prem = result.run_functional(seed=7)
        for array in reference:
            assert np.array_equal(reference[array], prem[array]), array


class TestCompilerIntegration:
    def test_fission_off_is_the_default(self):
        result = PremCompiler().compile(make_kernel("lstm", "MINI"))
        assert result.fission is None

    def test_fission_auto_records_the_result(self):
        result = PremCompiler().compile(
            make_kernel("lstm", "MINI"), fission="auto")
        assert result.fission is not None
        assert result.fission.changed
        assert {s.var for s in result.fission.splits} == {"p", "s1_0"}

    def test_fission_auto_on_noop_kernel_is_honest(self):
        result = PremCompiler().compile(
            make_kernel("cnn", "MINI"), fission="auto")
        assert result.fission is not None
        assert not result.fission.changed

    def test_convrelu_gains_components(self):
        compiler = PremCompiler()
        kernel = make_kernel("convrelu", "MINI")
        off = compiler.compile(kernel, fission="off")
        on = compiler.compile(kernel, fission="auto")
        assert len(on.components) > len(off.components)

    @pytest.mark.parametrize("name, analyses", [("maxpool", 1), ("rnn", 2)])
    def test_front_end_reanalyses_only_a_split_kernel(
            self, monkeypatch, name, analyses):
        calls = []
        analyze = DependenceAnalyzer.analyze

        def counting(analyzer):
            calls.append(analyzer)
            return analyze(analyzer)

        monkeypatch.setattr(DependenceAnalyzer, "analyze", counting)
        result = PremCompiler().compile(
            make_kernel(name, "MINI"), fission="auto")
        assert result.fission.changed == (analyses == 2)
        assert len(calls) == analyses

    def test_unsplit_tree_reuses_the_fission_dependences(self):
        kernel = make_kernel("maxpool", "MINI")
        result = PremCompiler().compile(kernel, fission="auto")
        assert not result.fission.changed
        assert result.tree.dependences == result.fission.dependences
        assert sorted(map(repr, result.tree.dependences)) == \
            sorted(map(repr, analyze_dependences(kernel)))

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="fission"):
            PremCompiler().compile(
                make_kernel("cnn", "MINI"), fission="yes")

    def test_explicit_tree_rejects_auto(self):
        from repro.loopir import LoopTree

        kernel = make_kernel("cnn", "MINI")
        tree = LoopTree.build(kernel)
        with pytest.raises(ValueError, match="tree"):
            PremCompiler().compile(kernel, tree=tree, fission="auto")

    def test_fissioned_artifacts_verify_clean(self):
        result = PremCompiler().compile(
            make_kernel("convrelu", "MINI"), fission="auto")
        report = result.verify_static()
        assert not report.merged, report.render_text()


# ---------------------------------------------------------------------------
# Property: fission preserves VM array state on random imperfect nests


from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.analysis.source import verify_fission_plan  # noqa: E402


@st.composite
def imperfect_nests(draw):
    """A random 2-3 unit imperfect nest over two shared arrays."""
    n0 = draw(st.integers(min_value=2, max_value=4))
    unit_count = draw(st.integers(min_value=2, max_value=3))
    units = []
    for index in range(unit_count):
        nested = draw(st.booleans())
        inner = f"j{index}"
        scope = ("i", inner) if nested else ("i",)
        warr = draw(st.sampled_from(("a", "b")))
        rarr = draw(st.sampled_from(("a", "b")))
        wvar = draw(st.sampled_from(scope))
        rvar = draw(st.sampled_from(scope))
        woff = draw(st.integers(min_value=0, max_value=2))
        roff = draw(st.integers(min_value=0, max_value=2))
        inner_n = draw(st.integers(min_value=2, max_value=3)) \
            if nested else 0
        units.append((index, nested, inner, inner_n,
                      warr, (wvar, woff), rarr, (rvar, roff)))
    return n0, units


def _build_random_kernel(n0, units):
    size = 16
    arrays = {"a": Array("a", (size,)), "b": Array("b", (size,))}

    def make_compute(warr, widx, rarr, ridx):
        def compute(mem, pt):
            value = mem[rarr][(pt[ridx[0]] + ridx[1],)]
            mem[warr][(pt[widx[0]] + widx[1],)] = value + np.float32(1.0)
        return compute

    body = []
    for index, nested, inner, inner_n, warr, widx, rarr, ridx in units:
        s = stmt_(
            f"s{index}", arrays,
            writes={warr: (f"{widx[0]} + {widx[1]}",)},
            reads={rarr: (f"{ridx[0]} + {ridx[1]}",)},
            compute=make_compute(warr, widx, rarr, ridx),
            flops=1)
        body.append(for_(inner, inner_n, s) if nested else s)
    kernel = Kernel(
        "prop", list(arrays.values()), [for_("i", n0, *body)])
    return kernel


@settings(max_examples=40, deadline=None)
@given(spec=imperfect_nests())
def test_fission_preserves_vm_state_on_random_nests(spec):
    n0, units = spec
    kernel = _build_random_kernel(n0, units)
    deps = analyze_dependences(kernel)
    result = fission_kernel(kernel, deps)
    assert verify_fission_plan(result.splits, deps) == []
    base = init_arrays(kernel, seed=11)
    fissioned = init_arrays(result.kernel, seed=11)
    SequentialInterpreter().run(kernel, base)
    SequentialInterpreter().run(result.kernel, fissioned)
    for name in base:
        assert np.array_equal(base[name], fissioned[name]), (
            name, result.splits)
