"""Feasibility tests for the Fourier–Motzkin engine."""

import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from repro.poly.affine import AffineExpr, aff
from repro.poly.constraint import Constraint, ConstraintSystem, box_constraints
from repro.poly.fm import check_feasibility, dedupe, is_feasible


def system(*constraints):
    return ConstraintSystem(constraints)


class TestBasics:
    def test_empty_system_feasible(self):
        assert is_feasible(system())

    def test_single_bound(self):
        assert is_feasible(system(Constraint.ge("x", 3)))

    def test_contradictory_bounds(self):
        assert not is_feasible(
            system(Constraint.ge("x", 3), Constraint.le("x", 2)))

    def test_adjacent_integer_bounds(self):
        assert is_feasible(
            system(Constraint.ge("x", 3), Constraint.le("x", 3)))

    def test_constant_violation(self):
        assert not is_feasible(system(Constraint.ge(aff(-1))))

    def test_constant_equality_violation(self):
        assert not is_feasible(system(Constraint.eq(aff(2))))

    def test_chain_of_differences(self):
        # x < y < z and z < x is infeasible
        assert not is_feasible(system(
            Constraint.lt("x", "y"),
            Constraint.lt("y", "z"),
            Constraint.lt("z", "x"),
        ))

    def test_two_var_equality(self):
        assert is_feasible(system(
            Constraint.eq(aff("x") - aff("y")),
            Constraint.ge("x", 0), Constraint.le("x", 10),
            Constraint.ge("y", 5), Constraint.le("y", 20),
        ))

    def test_two_var_equality_infeasible(self):
        assert not is_feasible(system(
            Constraint.eq(aff("x") - aff("y")),
            Constraint.le("x", 4),
            Constraint.ge("y", 5),
        ))


class TestGcd:
    def test_gcd_refutes_even_sum_odd_target(self):
        # 2x + 4y == 7 has no integer solution.
        result = check_feasibility(system(
            Constraint.eq(aff("x") * 2 + aff("y") * 4 - 7)))
        assert not result.feasible
        assert "gcd" in result.reason

    def test_gcd_allows_divisible_target(self):
        assert is_feasible(system(
            Constraint.eq(aff("x") * 2 + aff("y") * 4 - 6)))


class TestDependenceShapedSystems:
    """Systems of the form the dependence tester emits."""

    def test_loop_carried_distance(self):
        # src in [0,9], dst = src + 1 in [0,9], dst > src: feasible.
        assert is_feasible(system(
            Constraint.ge("s", 0), Constraint.le("s", 9),
            Constraint.ge("t", 0), Constraint.le("t", 9),
            Constraint.eq(aff("t") - aff("s") - 1),
            Constraint.gt("t", "s"),
        ))

    def test_reverse_direction_infeasible(self):
        assert not is_feasible(system(
            Constraint.ge("s", 0), Constraint.le("s", 9),
            Constraint.ge("t", 0), Constraint.le("t", 9),
            Constraint.eq(aff("t") - aff("s") - 1),
            Constraint.lt("t", "s"),
        ))

    def test_strided_access_disjoint(self):
        # 2s == 2t + 1 never holds for integers.
        assert not is_feasible(system(
            Constraint.eq(aff("s") * 2 - aff("t") * 2 - 1)))


@settings(max_examples=60)
@given(st.lists(
    st.tuples(
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=-4, max_value=4),
        st.booleans(),
    ),
    min_size=1, max_size=5,
))
def test_fm_agrees_with_rational_brute_force(rows):
    """On a small grid, integer satisfiability implies FM feasibility
    (conservativeness: FM may accept systems with only rational points,
    but must never reject a system that has an integer point)."""
    constraints = []
    for cx, cy, c0, is_eq in rows:
        expr = AffineExpr({"x": cx, "y": cy}, c0)
        constraints.append(
            Constraint(expr, "==") if is_eq else Constraint(expr, ">="))
    sys_ = ConstraintSystem(constraints).conjoin(
        box_constraints({"x": (-5, 5), "y": (-5, 5)}))
    has_integer_point = any(
        sys_.satisfied({"x": x, "y": y})
        for x, y in product(range(-5, 6), repeat=2))
    if has_integer_point:
        assert is_feasible(sys_)


# ---------------------------------------------------------------------------
# Exact agreement with a rational reference eliminator


def reference_feasible(sys_: ConstraintSystem) -> bool:
    """GCD pre-test plus Fourier–Motzkin over ``Fraction`` rows.

    An independent restatement of the engine's contract: rows are
    normalised by their first non-zero coefficient and deduplicated on
    the exact rational bound.
    """
    variables = sorted(sys_.variables())
    for constraint in sys_:
        coeffs = [constraint.expr.coeff(v) for v in variables]
        coeffs = [c for c in coeffs if c != 0]
        const = constraint.expr.constant
        if constraint.kind != "==" or not coeffs or not all(
                isinstance(c, int) for c in (*coeffs, const)):
            continue
        if const % math.gcd(*coeffs):
            return False
    rows = []
    for constraint in sys_:
        coeffs = tuple(Fraction(constraint.expr.coeff(v)) for v in variables)
        const = Fraction(constraint.expr.constant)
        rows.append((coeffs, const))
        if constraint.kind == "==":
            rows.append((tuple(-c for c in coeffs), -const))
    for var in range(len(variables)):
        positive = [r for r in rows if r[0][var] > 0]
        negative = [r for r in rows if r[0][var] < 0]
        combined = [r for r in rows if r[0][var] == 0]
        for pos_coeffs, pos_const in positive:
            for neg_coeffs, neg_const in negative:
                a, b = -neg_coeffs[var], pos_coeffs[var]
                combined.append((
                    tuple(a * p + b * n
                          for p, n in zip(pos_coeffs, neg_coeffs)),
                    a * pos_const + b * neg_const))
        tightest = {}
        for coeffs, const in combined:
            scale = next((abs(c) for c in coeffs if c), Fraction(1))
            key = tuple(c / scale for c in coeffs)
            if key not in tightest or const / scale < tightest[key]:
                tightest[key] = const / scale
        rows = list(tightest.items())
    return all(const >= 0 for _, const in rows)


VARS = ("a", "b", "x", "y")
COEFFS = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.builds(Fraction, st.integers(min_value=-3, max_value=3),
              st.integers(min_value=2, max_value=3)),
)


@st.composite
def rational_systems(draw):
    nvars = draw(st.integers(min_value=1, max_value=4))
    constraints = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        coeffs = {v: draw(COEFFS) for v in VARS[:nvars]}
        const = draw(st.one_of(
            st.integers(min_value=-6, max_value=6), COEFFS))
        kind = draw(st.sampled_from(("==", ">=")))
        constraints.append(Constraint(AffineExpr(coeffs, const), kind))
    return ConstraintSystem(constraints)


@settings(max_examples=300)
@given(rational_systems())
def test_fm_verdict_equals_rational_reference(sys_):
    assert is_feasible(sys_) == reference_feasible(sys_)


def _gt(*terms):
    """``sum(coeff * var) + const >= 0`` from (coeff, var) pairs."""
    *pairs, const = terms
    return Constraint(AffineExpr(dict((v, c) for c, v in pairs), const))


@pytest.mark.parametrize("constraints, feasible", [
    # 2x + 1 >= 0 beside -2x >= 0: x in [-1/2, 0].
    ([_gt((2, "x"), 1), _gt((-2, "x"), 0), _gt((1, "a"), 0)], True),
    # 2x - 1 >= 0 beside 1 - 2x >= 0: only x = 1/2.  Flooring the
    # normalised constants (x >= 1, x <= 0) would refute it.
    ([_gt((2, "x"), -1), _gt((-2, "x"), 1), _gt((1, "a"), 0)], True),
    # x >= -1/4 is tighter than x >= -1/2; with x <= -1/3 infeasible.
    ([_gt((2, "x"), 1), _gt((4, "x"), 1), _gt((-3, "x"), -1),
      _gt((1, "a"), 0)], False),
    # Rational coefficients: x/2 - 1/3 >= 0 and 1/6 - x/4 >= 0 give
    # x in [2/3, 2/3].
    ([_gt((Fraction(1, 2), "x"), Fraction(-1, 3)),
      _gt((Fraction(-1, 4), "x"), Fraction(1, 6)), _gt((1, "a"), 0)], True),
])
def test_fractional_bounds_are_never_rounded(constraints, feasible):
    # The unrelated variable "a" sorts first, so the x rows are carried
    # through the first round's dedupe before x is eliminated.
    sys_ = ConstraintSystem(constraints)
    assert reference_feasible(sys_) == feasible
    assert is_feasible(sys_) == feasible


def test_dedupe_keeps_the_tightest_rational_bound():
    # 2x + 1 >= 0 (x >= -1/2) and 4x + 1 >= 0 (x >= -1/4) share the key
    # (1,); the second is tighter and survives unrounded.
    assert dedupe([((2,), 1), ((4,), 1)]) == [((4,), 1)]
    assert dedupe([((4,), 1), ((2,), 1)]) == [((4,), 1)]
    assert dedupe([((6, -3), 9)]) == [((2, -1), 3)]
