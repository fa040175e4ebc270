"""Fourier–Motzkin elimination for rational feasibility of affine systems.

The dependence tester (:mod:`repro.poly.dependence`) reduces "does a
dependence with this direction vector exist?" to the feasibility of a small
conjunction of affine constraints over the source and sink iteration
vectors.  We decide feasibility over the rationals, exactly; the test is
*conservative* for the integer question in exactly the way the paper
requires ("the dependency analysis is conservative"):

- rationally infeasible  => no integer point          => independent
- rationally feasible    => assume a dependence exists

A GCD pre-test on equalities removes the most common spurious rational
solutions (strided accesses).

Rows are dense tuples of Python integers.  A constraint with rational
coefficients is scaled by the lcm of its denominators, and elimination
combines rows with positive integer scales; neither changes a row's
rational solution set.  :func:`dedupe` keys each row by its coefficients
divided by their gcd and keeps the tightest constant per key, comparing
the rational bounds ``const / gcd`` exactly by cross-multiplication.  The
constant is never rounded: flooring it (Omega-style integer tightening)
would decide the integer question instead and change dependence sets.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from .constraint import EQ, GE, ConstraintSystem

#: A linear inequality ``sum(coeffs[i] * x_i) + const >= 0`` in dense form.
Row = Tuple[Tuple[int, ...], int]


class FMResult:
    """Feasibility verdict with a human-readable reason (for diagnostics)."""

    def __init__(self, feasible: bool, reason: str):
        self.feasible = feasible
        self.reason = reason

    def __bool__(self) -> bool:
        return self.feasible

    def __repr__(self) -> str:
        verdict = "feasible" if self.feasible else "infeasible"
        return f"FMResult({verdict}: {self.reason})"


def is_feasible(system: ConstraintSystem) -> bool:
    """True when the system has a rational solution (conservative integer)."""
    return bool(check_feasibility(system))


def check_feasibility(system: ConstraintSystem) -> FMResult:
    """Run the GCD pre-test then rational Fourier–Motzkin elimination."""
    variables = sorted(system.variables())
    if not gcd_test(system, variables):
        return FMResult(False, "gcd test refuted an equality")

    rows = to_rows(system, variables)
    if rows is None:
        return FMResult(False, "constant constraint violated")
    return eliminate(rows, len(variables))


def gcd_test(system: ConstraintSystem, variables: Sequence[str]) -> bool:
    """Classic GCD test: an equality sum(c_i x_i) = -c0 with integer x
    requires gcd(c_i) | c0.  Returns False when some equality is refuted.
    """
    for constraint in system:
        if constraint.kind != EQ:
            continue
        coeffs = [constraint.expr.coeff(v) for v in variables]
        coeffs = [c for c in coeffs if c != 0]
        const = constraint.expr.constant
        if not all(isinstance(c, int) for c in coeffs) or not isinstance(const, int):
            continue
        if not coeffs:
            if const != 0:
                return False
            continue
        divisor = 0
        for coeff in coeffs:
            divisor = math.gcd(divisor, abs(coeff))
        if divisor and const % divisor != 0:
            return False
    return True


def to_rows(system: ConstraintSystem,
            variables: Sequence[str]) -> Optional[List[Row]]:
    """Densify to integer inequality rows; equalities become two rows.

    Returns None if a variable-free constraint is already violated.
    """
    index: Dict[str, int] = {v: i for i, v in enumerate(variables)}
    rows: List[Row] = []
    for constraint in system:
        coeffs = [0] * len(variables)
        for var, coeff in constraint.expr.coeffs.items():
            coeffs[index[var]] = coeff
        coeffs, const = _integer_row(coeffs, constraint.expr.constant)
        if not any(coeffs):
            if constraint.kind == EQ and const != 0:
                return None
            if constraint.kind == GE and const < 0:
                return None
            continue
        rows.append((tuple(coeffs), const))
        if constraint.kind == EQ:
            rows.append((tuple(-c for c in coeffs), -const))
    return rows


def _integer_row(coeffs: List, const) -> Tuple[List[int], int]:
    """Scale a row with Fraction entries by the lcm of their denominators.

    The scale is positive, so the row's rational solution set is kept.
    """
    if isinstance(const, int) and all(isinstance(c, int) for c in coeffs):
        return coeffs, const
    scale = math.lcm(*(c.denominator for c in coeffs), const.denominator)
    return [int(c * scale) for c in coeffs], int(const * scale)


def eliminate(rows: List[Row], nvars: int) -> FMResult:
    """Eliminate variables one by one, combining opposite-sign rows."""
    for var in range(nvars):
        positive: List[Row] = []
        negative: List[Row] = []
        neutral: List[Row] = []
        for row in rows:
            coeff = row[0][var]
            if coeff > 0:
                positive.append(row)
            elif coeff < 0:
                negative.append(row)
            else:
                neutral.append(row)

        new_rows = neutral
        for pos_coeffs, pos_const in positive:
            for neg_coeffs, neg_const in negative:
                # pos gives lower bound on x_var, neg gives upper bound;
                # combine with positive scales so the variable cancels.
                scale_pos = -neg_coeffs[var]
                scale_neg = pos_coeffs[var]
                divisor = math.gcd(scale_pos, scale_neg)
                scale_pos //= divisor
                scale_neg //= divisor
                coeffs = tuple(
                    scale_pos * pc + scale_neg * nc
                    for pc, nc in zip(pos_coeffs, neg_coeffs)
                )
                const = scale_pos * pos_const + scale_neg * neg_const
                if not any(coeffs):
                    if const < 0:
                        return FMResult(
                            False, f"contradiction eliminating var {var}")
                    continue
                new_rows.append((coeffs, const))
        rows = dedupe(new_rows)
        if not rows:
            return FMResult(True, "all constraints eliminated")

    for coeffs, const in rows:
        if const < 0:
            return FMResult(False, "residual constant constraint violated")
    return FMResult(True, "system reduced to satisfiable constants")


def dedupe(rows: Sequence[Row]) -> List[Row]:
    """Normalize rows and keep the tightest copy of each left-hand side.

    Rows with proportional coefficients share the key ``coeffs / g``
    (``g`` the gcd of the coefficients).  Of ``key.x + const/g >= 0`` the
    smallest ``const/g`` is the strongest; ``c1/g1 < c2/g2`` is decided
    as ``c1*g2 < c2*g1`` so no bound is ever rounded.  Each kept row is
    divided by the gcd of all its entries, constant included.
    """
    seen: Dict[Tuple[int, ...], Tuple[int, int]] = {}
    for coeffs, const in rows:
        g = math.gcd(*coeffs) or 1
        key = tuple(c // g for c in coeffs) if g > 1 else coeffs
        best = seen.get(key)
        if best is None or const * best[1] < best[0] * g:
            seen[key] = (const, g)
    out: List[Row] = []
    for key, (const, g) in seen.items():
        common = math.gcd(g, const)
        if common == g:
            out.append((key, const // g))
        else:
            scale = g // common
            out.append((tuple(c * scale for c in key), const // common))
    return out
