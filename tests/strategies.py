"""Shared hypothesis strategies for the property tests: random kernels
for the search-parity tests, symbolic hulls for the range and race
tests, tiles and guarded synthetic kernels for the range-program
tests."""

from hypothesis import strategies as st

from repro.loopir.builder import for_, kernel_, stmt_
from repro.poly.access import Array
from repro.poly.affine import AffineExpr
from repro.poly.constraint import EQ, GE, Constraint
from repro.prem.ranges import CanonicalRange


@st.composite
def random_kernels(draw):
    """Tiny synthetic kernels: 1–2 loop levels, elementwise or reduction
    accesses, so parallelizability, SPM pressure and remainder tiles all
    vary across examples.  Draws ``(kernel, loop variables)``."""
    depth = draw(st.integers(1, 2))
    ns = [draw(st.integers(2, 9)) for _ in range(depth)]
    reduction = depth == 2 and draw(st.booleans())
    vars_ = [f"v{i}" for i in range(depth)]
    a = Array("A", tuple(ns))
    if reduction:
        out = Array("B", (ns[0],))
        arrays = {"A": a, "B": out}
        stmt = stmt_("S0", arrays,
                     reads={"A": tuple(vars_), "B": (vars_[0],)},
                     writes={"B": (vars_[0],)})
    else:
        out = Array("B", tuple(ns))
        arrays = {"A": a, "B": out}
        stmt = stmt_("S0", arrays,
                     reads={"A": tuple(vars_)},
                     writes={"B": tuple(vars_)})
    loop = stmt
    for var, n in zip(reversed(vars_), reversed(ns)):
        loop = for_(var, n, loop)
    return kernel_("rand", list(arrays.values()), [loop]), vars_


BOX_VARS = ("i", "j", "k")
OUTER_VARS = ("t", "u")           # enclosing iterators, never in a box
coefficients = st.integers(-4, 4)
constants = st.integers(-20, 20)


def affine_exprs(variables=BOX_VARS + OUTER_VARS):
    return st.builds(
        AffineExpr,
        st.dictionaries(st.sampled_from(variables), coefficients),
        constants)


@st.composite
def boxes(draw):
    box = {}
    for var in draw(st.lists(st.sampled_from(BOX_VARS), unique=True)):
        low = draw(st.integers(-10, 10))
        box[var] = (low, low + draw(st.integers(0, 10)))
    return box


@st.composite
def bound_pairs(draw):
    """Two bounds that share their outer terms (differing only in the
    constant) or are drawn independently, so the coefficient maps
    mostly mismatch."""
    if draw(st.booleans()):
        terms = draw(st.dictionaries(st.sampled_from(OUTER_VARS),
                                     coefficients))
        return AffineExpr(terms, draw(constants)), \
            AffineExpr(terms, draw(constants))
    outer = affine_exprs(OUTER_VARS)
    return draw(outer), draw(outer)


@st.composite
def canonical_ranges(draw, ndim):
    """A hull with one (lo, hi) bound pair per dimension."""
    pairs = [draw(bound_pairs()) for _ in range(ndim)]
    return CanonicalRange(Array("a", (64,) * ndim),
                          tuple(lo for lo, _ in pairs),
                          tuple(hi for _, hi in pairs))


# ---------------------------------------------------------------------------
# Tiles and guarded accesses for the range-program tests

#: ``(reads, writes)`` access selections of a hull.
SELECTIONS = ((True, True), (True, False), (False, True))


@st.composite
def tiles(draw, component):
    """``(tile_sizes, tile_indices)`` of *component*: any size per level
    and any tile of it, the last (remainder) tile drawn often."""
    sizes, indices = {}, {}
    for node in component.nodes:
        size = draw(st.integers(1, node.N))
        last = -(-node.N // size) - 1
        sizes[node.var] = size
        indices[node.var] = draw(st.just(last) | st.integers(0, last))
    return sizes, indices


SYNTHETIC_VARS = ("t", "i", "j", "k")


@st.composite
def guards(draw):
    """One guard over the synthetic loops: a single-iterator inequality
    or equality of either sign — equalities whose constant the
    coefficient does not divide included — or a two-iterator
    inequality, which the hull ignores."""
    var = draw(st.sampled_from(SYNTHETIC_VARS))
    coeff = draw(st.integers(-3, 3).filter(bool))
    expr = AffineExpr({var: coeff}, draw(st.integers(-8, 8)))
    if draw(st.integers(0, 4)) == 0:
        other = draw(st.sampled_from(SYNTHETIC_VARS).filter(
            lambda v: v != var))
        return Constraint(expr + AffineExpr({other: 1}), GE)
    return Constraint(expr, draw(st.sampled_from((GE, EQ))))


@st.composite
def guarded_kernels(draw):
    """A ``t > i > j > k`` nest of 2–4 statements, each reading or
    writing one access of a 2-D array ``A`` under 0–3 guards.  Outer
    (``t``) coefficients vary between accesses, so signatures match in
    some dimensions and mismatch in others; loops start anywhere in
    0..3 with stride 1 or 2."""
    array = Array("A", (48, 48))
    coefficient = st.integers(-2, 2)
    stmts = []
    for n in range(draw(st.integers(2, 4))):
        indices = tuple(
            AffineExpr({var: draw(coefficient) for var in SYNTHETIC_VARS},
                       draw(st.integers(-4, 4)))
            for _ in range(2))
        kind = "writes" if draw(st.booleans()) else "reads"
        stmts.append(stmt_(
            f"S{n}", {"A": array}, **{kind: {"A": indices}},
            guards=draw(st.lists(guards(), max_size=3))))
    body = stmts
    for var in reversed(SYNTHETIC_VARS):
        body = [for_(var, draw(st.integers(1, 7)), *body,
                     begin=draw(st.integers(0, 3)),
                     stride=draw(st.integers(1, 2)))]
    return kernel_("guarded", [array], body)
