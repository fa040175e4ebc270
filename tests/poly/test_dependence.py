"""Tests for the direction-vector dependence analyzer.

The worked examples come straight from the paper: the vector-multiply
program of Figure 2.3 and the guarded accumulation of Listing 5.1.
"""

import pytest

from repro.kernels import make_kernel
from repro.loopir import analyze_dependences
from repro.poly import fm
from repro.poly.access import Array, read, write
from repro.poly.affine import aff
from repro.poly.constraint import Constraint, ConstraintSystem
from repro.poly.dependence import (
    DependenceAnalyzer,
    StatementInfo,
    concrete_pairs,
    shared_prefix,
)
from repro.poly.domain import Domain, LoopRange
from repro.poly.schedule import Schedule, ScheduleDim


def kelly(*entries):
    return Schedule([
        ScheduleDim.static(e) if isinstance(e, int) else ScheduleDim.loop(e)
        for e in entries
    ])


def test_shared_prefix():
    assert shared_prefix(("t", "i", "j"), ("t", "i", "k")) == ("t", "i")
    assert shared_prefix(("a",), ("b",)) == ()


class TestListing51:
    """Listing 5.1: guarded init + accumulation over (t, s1, p)."""

    @pytest.fixture()
    def stmts(self):
        nt, ns, np_ = 3, 4, 5
        arr_i = Array("i_arr", (ns,))
        u = Array("U_i", (ns, np_))
        inp = Array("inp_F", (nt, np_))
        ranges = [
            LoopRange("t", 0, nt),
            LoopRange("s1", 0, ns),
            LoopRange("p", 0, np_),
        ]
        stmt1 = StatementInfo(
            name="Stmt1",
            domain=Domain(ranges, ConstraintSystem([Constraint.eq("p", 0)])),
            schedule=kelly(0, "t", 0, "s1", 0, "p", 0),
            accesses=[write(arr_i, "s1")],
        )
        stmt2 = StatementInfo(
            name="Stmt2",
            domain=Domain(ranges),
            schedule=kelly(0, "t", 0, "s1", 0, "p", 1),
            accesses=[
                write(arr_i, "s1"), read(arr_i, "s1"),
                read(u, "s1", "p"), read(inp, "t", "p"),
            ],
        )
        return stmt1, stmt2

    def test_init_to_mac_raw(self, stmts):
        deps = DependenceAnalyzer(list(stmts)).analyze()
        raw = [d for d in deps if d.src_stmt == "Stmt1"
               and d.dst_stmt == "Stmt2" and d.kind == "RAW"]
        assert raw, "init -> mac RAW dependence must exist"
        dep = raw[0]
        # Loop independent (same p=0 instance, textual order) and carried
        # by p (read at p>0 of the value written at p=0); never by s1.
        assert dep.loop_independent
        assert ("=", "=", "<") in dep.directions
        assert all(d[1] == "=" for d in dep.directions)

    def test_mac_self_dependence_directions(self, stmts):
        deps = DependenceAnalyzer([stmts[1]]).analyze()
        self_raw = [d for d in deps if d.kind == "RAW"]
        assert self_raw
        dep = self_raw[0]
        # i[s1] accumulation: p carries within one t; across t the element
        # is rewritten, so ('<', '=', *) is feasible too — but s1 always 0.
        assert ("=", "=", "<") in dep.directions
        assert dep.has_nonzero_at("p")
        assert not dep.has_nonzero_at("s1")

    def test_parallelizable_levels(self, stmts):
        deps = DependenceAnalyzer(list(stmts)).analyze()
        # Paper's conclusion for Listing 5.1: s1 parallelizable, p not.
        assert all(not d.has_nonzero_at("s1") for d in deps)
        assert any(d.has_nonzero_at("p") for d in deps)

    def test_carried_by(self, stmts):
        deps = DependenceAnalyzer([stmts[1]]).analyze()
        dep = [d for d in deps if d.kind == "RAW"][0]
        assert dep.carried_by("p") or dep.carried_by("t")
        assert not dep.carried_by("s1")

    def test_directions_match_concrete_pairs(self, stmts):
        """Oracle check: every concrete dependent pair's sign pattern must
        be among the analyzer's direction vectors."""
        stmt1, stmt2 = stmts
        deps = DependenceAnalyzer([stmt1, stmt2]).analyze()
        raw = [d for d in deps if d.src_stmt == "Stmt1"
               and d.dst_stmt == "Stmt2" and d.kind == "RAW"][0]
        pairs = concrete_pairs(stmt1, stmt2, raw, limit=500)
        assert pairs
        for src, dst in pairs:
            signs = []
            for var in raw.shared_loops:
                delta = dst[var] - src[var]
                signs.append("=" if delta == 0 else
                             "<" if delta > 0 else ">")
            if all(s == "=" for s in signs):
                assert raw.loop_independent
            else:
                assert tuple(signs) in raw.directions


class TestKindsAndDisjointness:
    def test_read_read_ignored(self):
        a = Array("a", (10,))
        info = StatementInfo(
            "S", Domain([LoopRange("i", 0, 10)]), kelly(0, "i", 0),
            [read(a, "i")])
        assert DependenceAnalyzer([info]).analyze() == []

    def test_disjoint_elements_no_dependence(self):
        a = Array("a", (20,))
        info = StatementInfo(
            "S", Domain([LoopRange("i", 0, 5)]), kelly(0, "i", 0),
            [write(a, aff("i") * 2), read(a, aff("i") * 2 + 1)])
        deps = DependenceAnalyzer([info]).analyze()
        assert deps == []

    def test_war_detected(self):
        a = Array("a", (10,))
        info = StatementInfo(
            "S", Domain([LoopRange("i", 0, 9)]), kelly(0, "i", 0),
            [read(a, aff("i") + 1), write(a, "i")])
        kinds = {d.kind for d in DependenceAnalyzer([info]).analyze()}
        assert "WAR" in kinds
        # every element is written exactly once: no WAW exists
        assert "WAW" not in kinds

    def test_waw_detected(self):
        # instance i writes a[i] and a[i+1]; i+1 rewrites a[i+1].
        a = Array("a", (11,))
        info = StatementInfo(
            "S", Domain([LoopRange("i", 0, 10)]), kelly(0, "i", 0),
            [write(a, "i"), write(a, aff("i") + 1)])
        deps = DependenceAnalyzer([info]).analyze()
        waw = [d for d in deps if d.kind == "WAW"]
        assert any(("<",) in d.directions for d in waw)

    def test_stencil_negative_inner_direction(self):
        # a[i][j] = a[i+1][j-1]: WAR with direction ('<', '>').
        a = Array("a", (12, 12))
        info = StatementInfo(
            "S", Domain([LoopRange("i", 0, 10), LoopRange("j", 1, 10)]),
            kelly(0, "i", 0, "j", 0),
            [write(a, "i", "j"), read(a, aff("i") + 1, aff("j") - 1)])
        deps = DependenceAnalyzer([info]).analyze()
        war = [d for d in deps if d.kind == "WAR"]
        assert any(("<", ">") in d.directions for d in war)

    def test_different_arrays_independent(self):
        a, b = Array("a", (10,)), Array("b", (10,))
        dom = Domain([LoopRange("i", 0, 10)])
        s1 = StatementInfo("S1", dom, kelly(0, "i", 0), [write(a, "i")])
        s2 = StatementInfo("S2", dom, kelly(0, "i", 1), [read(b, "i")])
        assert DependenceAnalyzer([s1, s2]).analyze() == []


@pytest.fixture
def eliminations(monkeypatch):
    """Every Fourier–Motzkin elimination run, as its variable count."""
    calls = []
    eliminate = fm.eliminate

    def counting(rows, nvars):
        calls.append(nvars)
        return eliminate(rows, nvars)

    monkeypatch.setattr(fm, "eliminate", counting)
    return calls


class TestEliminationMemo:
    def test_lstm_small_shares_eliminations(self, eliminations):
        # One elimination per probe would be 837; systems equal up to
        # an iterator renaming share one memoized verdict.
        assert analyze_dependences(make_kernel("lstm", "SMALL"))
        assert len(eliminations) <= 155

    def test_memo_is_per_analysis(self, eliminations):
        kernel = make_kernel("rnn", "MINI")
        first = analyze_dependences(kernel)
        cold = len(eliminations)
        assert analyze_dependences(kernel) == first
        assert len(eliminations) == 2 * cold
