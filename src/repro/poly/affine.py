"""Affine expressions over named integer iterators.

The polyhedral model used throughout this reproduction restricts programs to
rectangular iteration domains with affine array subscripts (the same
restriction the paper imposes in Section 3.2).  An :class:`AffineExpr` is an
exact integer-coefficient linear form ``c0 + sum_i c_i * x_i`` over named
iterator variables.  It is the atom from which access relations, guards and
dependence systems are built.

Expressions are immutable and hashable; arithmetic returns new objects.
"""

from __future__ import annotations

from fractions import Fraction
from typing import ItemsView, Iterable, Mapping, Union

Number = Union[int, Fraction]
ExprLike = Union["AffineExpr", int, str]


class AffineExpr:
    """An immutable affine form ``const + sum(coeff[v] * v)``.

    Parameters
    ----------
    coeffs:
        Mapping from variable name to integer (or Fraction) coefficient.
        Zero coefficients are dropped.
    const:
        The constant term.
    """

    __slots__ = ("_coeffs", "_const", "_hash")

    def __init__(self, coeffs: Mapping[str, Number] | None = None,
                 const: Number = 0):
        self._coeffs = {var: coeffs[var] for var in sorted(coeffs)
                        if coeffs[var] != 0} if coeffs else {}
        self._const = const
        self._hash = None       # computed on first use

    # -- constructors -----------------------------------------------------

    @classmethod
    def var(cls, name: str) -> "AffineExpr":
        """The expression consisting of a single variable."""
        return cls({name: 1})

    @classmethod
    def const(cls, value: Number) -> "AffineExpr":
        """A constant expression."""
        return cls({}, value)

    @classmethod
    def coerce(cls, value: ExprLike) -> "AffineExpr":
        """Turn an int, a variable name or an AffineExpr into an AffineExpr."""
        if isinstance(value, AffineExpr):
            return value
        if isinstance(value, str):
            return cls.var(value)
        if isinstance(value, (int, Fraction)):
            return cls.const(value)
        raise TypeError(f"cannot coerce {value!r} to AffineExpr")

    # -- observers ---------------------------------------------------------

    @property
    def coeffs(self) -> Mapping[str, Number]:
        return dict(self._coeffs)

    @property
    def constant(self) -> Number:
        return self._const

    def terms(self) -> ItemsView[str, Number]:
        """Read-only ``(var, coeff)`` view of the non-zero terms, in
        variable order; unlike :attr:`coeffs` it copies nothing."""
        return self._coeffs.items()

    def same_coeffs(self, other: "AffineExpr") -> bool:
        """True when both forms have equal coefficient maps, i.e. they
        differ by a constant; compares without copying either map."""
        return self._coeffs == other._coeffs

    def coeff(self, var: str) -> Number:
        """Coefficient of *var* (0 if absent)."""
        return self._coeffs.get(var, 0)

    def variables(self) -> frozenset:
        """The set of variables with non-zero coefficient."""
        return frozenset(self._coeffs)

    def is_constant(self) -> bool:
        return not self._coeffs

    def is_single_var(self) -> bool:
        """True when the expression is exactly ``1 * v + c``."""
        return len(self._coeffs) == 1 and next(iter(self._coeffs.values())) == 1

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, assignment: Mapping[str, Number]) -> Number:
        """Evaluate under a full assignment of the expression's variables."""
        total = self._const
        for var, coeff in self._coeffs.items():
            total += coeff * assignment[var]
        return total

    def bounds(self, box: Mapping[str, tuple]) -> tuple:
        """Exact [min, max] over a box of per-variable inclusive ranges.

        For affine forms the extremes are attained at box corners, picked
        per-variable according to the coefficient sign.  Variables missing
        from *box* must not appear in the expression.
        """
        lo = hi = self._const
        for var, coeff in self._coeffs.items():
            vmin, vmax = box[var]
            if coeff >= 0:
                lo += coeff * vmin
                hi += coeff * vmax
            else:
                lo += coeff * vmax
                hi += coeff * vmin
        return lo, hi

    def substitute(self, bindings: Mapping[str, ExprLike]) -> "AffineExpr":
        """Replace variables by expressions (affine composition)."""
        result = AffineExpr.const(self._const)
        for var, coeff in self._coeffs.items():
            if var in bindings:
                result = result + AffineExpr.coerce(bindings[var]) * coeff
            else:
                result = result + AffineExpr({var: coeff})
        return result

    def rename(self, mapping: Mapping[str, str]) -> "AffineExpr":
        """Rename variables (e.g. prime the sink iteration vector)."""
        return AffineExpr(
            {mapping.get(v, v): c for v, c in self._coeffs.items()},
            self._const,
        )

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: ExprLike) -> "AffineExpr":
        other = AffineExpr.coerce(other)
        coeffs = dict(self._coeffs)
        for var, coeff in other._coeffs.items():
            coeffs[var] = coeffs.get(var, 0) + coeff
        return AffineExpr(coeffs, self._const + other._const)

    __radd__ = __add__

    def __neg__(self) -> "AffineExpr":
        return AffineExpr({v: -c for v, c in self._coeffs.items()}, -self._const)

    def __sub__(self, other: ExprLike) -> "AffineExpr":
        return self + (-AffineExpr.coerce(other))

    def __rsub__(self, other: ExprLike) -> "AffineExpr":
        return AffineExpr.coerce(other) + (-self)

    def __mul__(self, scalar: Number) -> "AffineExpr":
        if not isinstance(scalar, (int, Fraction)):
            raise TypeError("AffineExpr can only be scaled by a number")
        return AffineExpr(
            {v: c * scalar for v, c in self._coeffs.items()},
            self._const * scalar,
        )

    __rmul__ = __mul__

    # -- comparison / hashing -------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, AffineExpr):
            return NotImplemented
        return self._coeffs == other._coeffs and self._const == other._const

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((tuple(self._coeffs.items()), self._const))
        return self._hash

    def __repr__(self) -> str:
        parts = []
        for var, coeff in self._coeffs.items():
            if coeff == 1:
                parts.append(var)
            elif coeff == -1:
                parts.append(f"-{var}")
            else:
                parts.append(f"{coeff}*{var}")
        if self._const != 0 or not parts:
            parts.append(str(self._const))
        text = " + ".join(parts).replace("+ -", "- ")
        return text


def aff(value: ExprLike) -> AffineExpr:
    """Shorthand coercion used pervasively by the kernel builder DSL."""
    return AffineExpr.coerce(value)


def parse_affine(text: str, constants: Mapping[str, int] | None = None) -> AffineExpr:
    """Parse a tiny affine expression grammar like ``"p + NR - r - 1"``.

    Supports ``+``, ``-``, integer literals, integer*var products and
    symbolic constants resolved through *constants*.  This mirrors the
    subscripts accepted by the paper's front end (pet) on the benchmark
    corpus.
    """
    constants = constants or {}
    expr = AffineExpr.const(0)
    token = ""
    sign = 1
    tokens = []
    for char in text.replace("-", " - ").replace("+", " + ").split():
        tokens.append(char)
    for tok in tokens:
        if tok == "+":
            sign = 1
            continue
        if tok == "-":
            sign = -1
            continue
        expr = expr + _parse_term(tok, constants) * sign
        sign = 1
    return expr


def _parse_term(token: str, constants: Mapping[str, int]) -> AffineExpr:
    if "*" in token:
        left, right = token.split("*", 1)
        left_e = _parse_atom(left, constants)
        right_e = _parse_atom(right, constants)
        if left_e.is_constant():
            return right_e * left_e.constant
        if right_e.is_constant():
            return left_e * right_e.constant
        raise ValueError(f"non-affine product: {token}")
    return _parse_atom(token, constants)


def _parse_atom(token: str, constants: Mapping[str, int]) -> AffineExpr:
    token = token.strip()
    if not token:
        raise ValueError("empty token in affine expression")
    try:
        return AffineExpr.const(int(token))
    except ValueError:
        pass
    if token in constants:
        return AffineExpr.const(constants[token])
    return AffineExpr.var(token)


def lex_compare(a: Iterable[Number], b: Iterable[Number]) -> int:
    """Lexicographic comparison of two numeric tuples: -1, 0 or +1."""
    a = tuple(a)
    b = tuple(b)
    if len(a) != len(b):
        raise ValueError("lexicographic comparison of unequal-length tuples")
    for x, y in zip(a, b):
        if x < y:
            return -1
        if x > y:
            return 1
    return 0
