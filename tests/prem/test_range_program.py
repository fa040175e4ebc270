"""Range programs against the symbolic oracle.

A :class:`~repro.prem.ranges.RangeProgram` computes every tile hull in
integer arithmetic from accesses compiled once per component; the
oracle (``tests/range_oracle.py``) re-derives each hull symbolically
per tile box, guards narrowed with ``Fraction`` ceil/floor and bounds
folded as ``AffineExpr`` pairs.  On every input the two must agree
exactly — symbolic bounds, shapes, bounding boxes, relevant levels and
raised exceptions — for the read, write and combined hulls.

Inputs: random tile-size vectors and tiles (remainder tiles included)
for every component of every kernel at MINI and SMALL, which covers
LSTM's ``t > 0`` / ``p == 0`` guards and outer ``t`` and the CNN halo;
and guarded synthetic kernels with equalities that do not divide,
negative guard coefficients and outer signatures that mismatch.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import KERNELS, make_kernel
from repro.loopir import LoopTree
from repro.loopir.component import component_at
from repro.prem.ranges import _stmt_guards, access_range, tile_box
from tests import range_oracle as oracle
from tests.strategies import SELECTIONS, guarded_kernels, tiles


def _chains(tree):
    """Every chain of consecutive loop-tree levels: the components any
    search may tile."""
    chains = []

    def walk(node, path):
        path = path + [node.var]
        chains.extend(path[start:] for start in range(len(path)))
        for child in node.children:
            walk(child, path)

    for root in tree.roots:
        walk(root, [])
    return chains


@lru_cache(maxsize=None)
def kernel_components():
    out = []
    for name in sorted(KERNELS):
        for preset in ("MINI", "SMALL"):
            tree = LoopTree.build(make_kernel(name, preset))
            out.extend(component_at(tree, chain) for chain in _chains(tree))
    return tuple(out)


@st.composite
def kernel_tiles(draw):
    components = kernel_components()
    component = components[draw(st.integers(0, len(components) - 1))]
    return (component,) + draw(tiles(component))


@st.composite
def synthetic_tiles(draw):
    """A guarded synthetic kernel, one of its components (any chain of
    ``t > i > j > k``) and a tile of it."""
    tree = LoopTree.build(draw(guarded_kernels()), dependences=[])
    chains = _chains(tree)
    component = component_at(tree, draw(st.sampled_from(chains)))
    return (component,) + draw(tiles(component))


def _outcome(call):
    """A call's result, or the type and text of what it raised."""
    try:
        return call()
    except (LookupError, ValueError) as error:
        return type(error), str(error)


def check_hulls(component, sizes, indices):
    box = tile_box(component, indices, sizes)
    for name in component.arrays():
        for reads, writes in SELECTIONS:
            got = access_range(component, name, box,
                               reads=reads, writes=writes)
            want = oracle.access_range(component, name, box,
                                       reads=reads, writes=writes)
            if want is None:
                assert got is None
                continue
            assert got.array is want.array
            assert (got.lo, got.hi) == (want.lo, want.hi)
            assert repr(got) == repr(want)
            assert got.shape == want.shape


def check_geometry(component, sizes, indices):
    geometry = component.geometry
    widths = {
        node.var: sizes[node.var]
        if indices[node.var] < -(-node.N // sizes[node.var]) - 1
        else node.N - indices[node.var] * sizes[node.var]
        for node in component.nodes}
    for name in component.arrays():
        assert _outcome(lambda: geometry.bounding_shape(name, sizes)) == \
            _outcome(lambda: oracle.bounding_box(component, name, sizes))
        assert geometry.relevant_levels(name, sizes) == \
            oracle.relevant_levels(component, name, sizes)
        assert geometry.range_shape(name, sizes, widths) == \
            oracle.range_shape(component, name, sizes, widths)
        guarded = any(_stmt_guards(component, stmt)
                      for stmt, _ in component.accesses(name))
        if not guarded:
            first = tile_box(
                component, {v: 0 for v in component.band_vars}, sizes)
            shape = oracle.access_range(component, name, first).shape
            for dim, extent in enumerate(shape):
                assert geometry.first_tile_extent(name, dim, sizes) \
                    == extent


@settings(max_examples=300)
@given(kernel_tiles())
def test_kernel_hulls_match_oracle(case):
    check_hulls(*case)


@settings(max_examples=150)
@given(kernel_tiles())
def test_kernel_geometry_matches_oracle(case):
    check_geometry(*case)


@settings(max_examples=300)
@given(synthetic_tiles())
def test_synthetic_hulls_match_oracle(case):
    check_hulls(*case)


@settings(max_examples=150)
@given(synthetic_tiles())
def test_synthetic_geometry_matches_oracle(case):
    check_geometry(*case)


@pytest.mark.parametrize("preset", ["MINI", "SMALL"])
def test_lstm_guards_and_outer_iterator_are_covered(preset):
    """The kernel inputs hold the cases the module docstring promises:
    LSTM's guarded statements and its outer ``t`` signature."""
    labels = {c.label() for c in kernel_components()
              if c.kernel.name.startswith("lstm")}
    assert "(t)" in labels and "(s1_0, p)" in labels
    tree = LoopTree.build(make_kernel("lstm", preset))
    component = component_at(tree, ["s1_0", "p"])
    program = component.geometry.program("inp_F")
    signatures = {dims[0][0] for *_, dims in program.accesses}
    assert signatures == {(("t", 1),)}
