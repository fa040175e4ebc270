"""Canonical data element range tests against the paper's worked examples.

Key fixtures: the LSTM component of Section 3.5 (segment ranges like
``U_ifog[0-108][0-349]``) and the 3-D transfer example of Figure 5.4.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kernels import lstm, make_kernel, preset_sizes
from repro.loopir import LoopTree
from repro.loopir.component import component_at
from repro.poly.affine import AffineExpr, aff
from repro.prem.ranges import (
    CanonicalRange,
    access_range,
    partial_bounds,
    ranges_overlap,
    tile_box,
)
from repro.poly.access import Array
from tests.range_oracle import symbolic_min
from tests.strategies import (
    affine_exprs,
    bound_pairs,
    boxes,
    canonical_ranges,
)


@pytest.fixture(scope="module")
def lstm_large():
    tree = LoopTree.build(make_kernel("lstm", "LARGE"))
    return component_at(tree, ["s1_0", "p"])


SIZES = {"s1_0": 109, "p": 350}


class TestPartialBounds:
    def test_pure_numeric(self):
        lo, hi = partial_bounds(aff("i") * 2 + 1, {"i": (0, 4)})
        assert (lo.constant, hi.constant) == (1, 9)

    def test_symbolic_part_passes_through(self):
        expr = aff("t") + aff("p")
        lo, hi = partial_bounds(expr, {"p": (3, 7)})
        assert lo == aff("t") + 3
        assert hi == aff("t") + 7

    def test_negative_coefficient(self):
        lo, hi = partial_bounds(5 - aff("r"), {"r": (0, 2)})
        assert (lo.constant, hi.constant) == (3, 5)


class TestSection35Ranges:
    """The canonical ranges quoted in Section 3.5 for the LSTM example
    with K = (109, 350) on core 0."""

    def range_at(self, comp, name, s1_t, p_t):
        box = tile_box(comp, {"s1_0": s1_t, "p": p_t}, SIZES)
        return access_range(comp, name, box)

    def test_u_ifog_seg01(self, lstm_large):
        crange = self.range_at(lstm_large, "U_i", 0, 0)
        assert crange.concrete() == ((0, 108), (0, 349))

    def test_u_ifog_seg02(self, lstm_large):
        crange = self.range_at(lstm_large, "U_i", 0, 1)
        assert crange.concrete() == ((0, 108), (350, 699))

    def test_u_ifog_seg03(self, lstm_large):
        crange = self.range_at(lstm_large, "U_i", 1, 0)
        assert crange.concrete() == ((109, 217), (0, 349))

    def test_last_tile_clipped(self, lstm_large):
        # 650 = 5*109 + 105: the last s1 range has 105 rows.
        crange = self.range_at(lstm_large, "U_i", 5, 1)
        assert crange.concrete() == ((545, 649), (350, 699))
        assert crange.shape == (105, 350)

    def test_ifog_depends_only_on_s1(self, lstm_large):
        a = self.range_at(lstm_large, "i", 0, 0)
        b = self.range_at(lstm_large, "i", 0, 1)
        c = self.range_at(lstm_large, "i", 1, 0)
        assert a.same_as(b)
        assert not a.same_as(c)

    def test_inp_f_symbolic_over_time(self, lstm_large):
        crange = self.range_at(lstm_large, "inp_F", 0, 0)
        # dim 0 is the outer iterator t: symbolic until pinned.
        assert crange.lo[0] == aff("t")
        assert crange.concrete({"t": 4}) == ((4, 4), (0, 349))
        assert crange.shape == (1, 350)

    def test_bytes_match_table_3_2(self, lstm_large):
        # Table 3.2: ifog swap sizes are 109*4 bytes per segment.
        crange = self.range_at(lstm_large, "i", 0, 0)
        assert crange.bytes == 109 * 4

    def test_address_offset(self, lstm_large):
        crange = self.range_at(lstm_large, "i", 2, 0)
        assert crange.address_offset() == 218


class TestFigure53Hull:
    """Figure 5.3: sparse accesses in arr[5][5] hull to [1..4]x[0..3]."""

    def test_hull_of_guarded_accesses(self):
        arr = Array("arr", (5, 5))
        lo = (aff(1), aff(0))
        hi = (aff(4), aff(3))
        crange = CanonicalRange(arr, lo, hi)
        assert crange.shape == (4, 4)
        assert crange.elements == 16


class TestCnnHalo:
    def test_input_halo_included(self):
        tree = LoopTree.build(make_kernel("cnn", "SMALL"))
        comp = component_at(tree, ["n", "k", "p", "q", "c"])
        sizes = {"n": 1, "k": 4, "p": 2, "q": 8, "c": 8}
        box = tile_box(comp, {v: 0 for v in sizes}, sizes)
        crange = access_range(comp, "inp_F", box)
        nr = tree.kernel.constants["NR"]
        # p in [0,1], subscript p + NR-1-r covers [0, 1 + NR - 1].
        assert crange.concrete()[2] == (0, 1 + nr - 1)


class TestBoundingBox:
    def test_dominated_by_full_tile(self, lstm_large):
        bbox = lstm_large.geometry.bounding_shape("U_i", SIZES)
        assert bbox == (109, 350)

    def test_unknown_array_raises(self, lstm_large):
        with pytest.raises(LookupError):
            lstm_large.geometry.bounding_shape("nope", SIZES)


class TestOverlap:
    def make(self, lo0, hi0):
        arr = Array("a", (100,))
        return CanonicalRange(arr, (aff(lo0),), (aff(hi0),))

    def test_disjoint(self):
        assert not ranges_overlap(self.make(0, 9), self.make(10, 19))

    def test_overlapping(self):
        assert ranges_overlap(self.make(0, 10), self.make(10, 19))

    def test_symbolic_conservative(self):
        arr = Array("a", (100, 100))
        a = CanonicalRange(arr, (aff("t"), aff(0)), (aff("t"), aff(9)))
        b = CanonicalRange(
            arr, (aff("t") - 1, aff(0)), (aff("t") - 1, aff(9)))
        assert not ranges_overlap(a, b)   # t-1 < t provably


class TestGuardNarrowing:
    def test_loop_guard_narrows_band_variable(self):
        """The LSTM (t) whole-loop component must not produce negative
        subscripts for s_F[t-1][...] thanks to the t > 0 loop guard."""
        kernel = lstm(preset_sizes("lstm", "MINI"))
        tree = LoopTree.build(kernel)
        comp = component_at(tree, ["t"])
        nt = kernel.constants["NT"]
        box = tile_box(comp, {"t": 0}, {"t": nt})
        crange = access_range(comp, "s_F", box)
        lo, hi = crange.concrete()[0]
        assert lo == 0
        assert hi == nt - 1


# ---------------------------------------------------------------------------
# Hull arithmetic against reference oracles
#
# The oracles below are the straightforward ``AffineExpr``-arithmetic
# versions of the hull helpers: one expression per term, comparisons on
# copied coefficient maps.  The shipped helpers accumulate plain numbers
# and compare maps in place; on every input they must agree exactly.
# ``symbolic_min`` is the fold of the range-program oracle
# (tests/range_oracle.py), held here to the same reference.

def reference_partial_bounds(expr, box):
    lo = AffineExpr.const(expr.constant)
    hi = AffineExpr.const(expr.constant)
    for var, coeff in expr.coeffs.items():
        if var in box:
            vmin, vmax = box[var]
            if coeff >= 0:
                lo = lo + coeff * vmin
                hi = hi + coeff * vmax
            else:
                lo = lo + coeff * vmax
                hi = hi + coeff * vmin
        else:
            lo = lo + AffineExpr({var: coeff})
            hi = hi + AffineExpr({var: coeff})
    return lo, hi


def reference_shape(crange):
    out = []
    for lo, hi in zip(crange.lo, crange.hi):
        delta = hi - lo
        if not delta.is_constant():
            raise ValueError(
                f"range of {crange.array.name} has non-constant extent: "
                f"[{lo!r}, {hi!r}]")
        out.append(int(delta.constant) + 1)
    return tuple(out)


def reference_symbolic_min(current, candidate, array, dim, take_min):
    if current is None:
        return candidate
    if current.coeffs == candidate.coeffs:
        if take_min:
            keep = current.constant <= candidate.constant
        else:
            keep = current.constant >= candidate.constant
        return current if keep else candidate
    return AffineExpr.const(0 if take_min else array.shape[dim] - 1)


def reference_ranges_overlap(a, b):
    for (a_lo, a_hi), (b_lo, b_hi) in zip(zip(a.lo, a.hi), zip(b.lo, b.hi)):
        if a_hi.coeffs == b_lo.coeffs and \
                a_hi.constant < b_lo.constant:
            return False
        if b_hi.coeffs == a_lo.coeffs and \
                b_hi.constant < a_lo.constant:
            return False
    return True


class TestHullArithmeticOracles:
    @given(affine_exprs(), boxes())
    def test_partial_bounds(self, expr, box):
        assert partial_bounds(expr, box) == \
            reference_partial_bounds(expr, box)

    @given(affine_exprs(), boxes())
    def test_partial_bounds_hull_has_constant_shape(self, expr, box):
        lo, hi = partial_bounds(expr, box)
        crange = CanonicalRange(Array("a", (64,)), (lo,), (hi,))
        assert crange.shape == reference_shape(crange)

    @given(st.integers(1, 3).flatmap(canonical_ranges))
    def test_shape(self, crange):
        try:
            expected = reference_shape(crange)
        except ValueError as error:
            with pytest.raises(ValueError) as raised:
                crange.shape
            assert str(raised.value) == str(error)
        else:
            assert crange.shape == expected

    @given(bound_pairs(), st.booleans(), st.booleans())
    def test_symbolic_min(self, pair, take_min, first):
        current, candidate = pair
        current = current if first else None
        array = Array("a", (64,))
        got = symbolic_min(current, candidate, 64, take_min)
        want = reference_symbolic_min(current, candidate, array, 0, take_min)
        assert got == want
        if current is not None and current.coeffs != candidate.coeffs:
            assert got == AffineExpr.const(0 if take_min else 63)

    @given(st.integers(1, 3).flatmap(
        lambda ndim: st.tuples(canonical_ranges(ndim),
                               canonical_ranges(ndim))))
    def test_ranges_overlap(self, pair):
        a, b = pair
        assert ranges_overlap(a, b) == reference_ranges_overlap(a, b)
        assert ranges_overlap(b, a) == reference_ranges_overlap(b, a)
