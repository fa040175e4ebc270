"""The symbolic hull fold, kept as the reference for the range programs.

Before :class:`repro.prem.ranges.RangeProgram` existed, every hull was
derived symbolically per tile box: narrow the box with each accessing
statement's single-iterator guards (``Fraction`` ceil/floor), bound
every subscript over it with :func:`~repro.prem.ranges.partial_bounds`
into ``AffineExpr`` pairs, and fold the pairs per dimension, widening
to the full array extent when two bounds disagree on their outer
coefficients.  This module is that derivation, and the tile-geometry
queries built on it, so the property tests can hold the integer
programs to it exactly.
"""

import math
from fractions import Fraction
from itertools import product
from typing import Dict, List, Mapping, Optional, Tuple

from repro.poly.affine import AffineExpr
from repro.poly.constraint import EQ
from repro.prem.ranges import (
    CanonicalRange,
    _stmt_guards,
    partial_bounds,
    tile_box,
)


def narrow_with_guards(guards, box: Mapping[str, Tuple[int, int]]
                       ) -> Optional[Dict[str, Tuple[int, int]]]:
    """Intersect a tile box with single-iterator guards.

    Returns None when a guard excludes the statement from the tile
    entirely.  Multi-iterator guards and guards over iterators outside the
    box (outer loops) are ignored — the hull stays conservative, never too
    small.
    """
    narrowed = dict(box)
    for guard in guards:
        variables = sorted(guard.variables())
        if len(variables) != 1 or variables[0] not in narrowed:
            continue
        var = variables[0]
        coeff = guard.expr.coeff(var)
        const = guard.expr.constant
        lo, hi = narrowed[var]
        if guard.kind == EQ:
            if const % coeff != 0:
                return None
            value = -const // coeff
            if value < lo or value > hi:
                return None
            narrowed[var] = (value, value)
        elif coeff > 0:
            lo = max(lo, math.ceil(Fraction(-const, coeff)))
            if lo > hi:
                return None
            narrowed[var] = (lo, hi)
        else:
            hi = min(hi, math.floor(Fraction(-const, coeff)))
            if lo > hi:
                return None
            narrowed[var] = (lo, hi)
    return narrowed


def symbolic_min(current: Optional[AffineExpr], candidate: AffineExpr,
                 extent: int, take_min: bool) -> AffineExpr:
    """min/max of affine bounds; widens to ``[0, extent - 1]`` on
    coefficient mismatch (conservative hull)."""
    if current is None:
        return candidate
    if current.same_coeffs(candidate):
        if take_min:
            keep = current.constant <= candidate.constant
        else:
            keep = current.constant >= candidate.constant
        return current if keep else candidate
    return AffineExpr.const(0 if take_min else extent - 1)


def access_range(component, array_name, box, *, reads=True, writes=True
                 ) -> Optional[CanonicalRange]:
    """Hull of the selected accesses to *array_name* over one tile box;
    None when no selected access is active in it."""
    pairs = component.accesses(array_name)
    if not pairs:
        return None
    array = pairs[0][1].array
    lo: List[Optional[AffineExpr]] = [None] * array.ndim
    hi: List[Optional[AffineExpr]] = [None] * array.ndim
    active = False
    for stmt, access in pairs:
        if not ((reads and access.is_read) or (writes and access.is_write)):
            continue
        narrowed = narrow_with_guards(_stmt_guards(component, stmt), box)
        if narrowed is None:
            continue
        active = True
        for dim, expr in enumerate(access.indices):
            dim_lo, dim_hi = partial_bounds(expr, narrowed)
            lo[dim] = symbolic_min(lo[dim], dim_lo, array.shape[dim], True)
            hi[dim] = symbolic_min(hi[dim], dim_hi, array.shape[dim], False)
    if not active:
        return None
    return CanonicalRange(array, tuple(lo), tuple(hi))


def _sample_tiles(component, tile_sizes):
    """First and last tile index per level, crossed over levels."""
    per_level = []
    for node in component.nodes:
        count = -(-node.N // tile_sizes[node.var])
        per_level.append(sorted({0, count - 1}))
    for indices in product(*per_level):
        yield dict(zip(component.band_vars, indices))


def bounding_box(component, array_name, tile_sizes) -> Tuple[int, ...]:
    """``BoundingBox(a)`` — per-dimension max shape over sampled tiles."""
    best = None
    for indices in _sample_tiles(component, tile_sizes):
        crange = access_range(
            component, array_name, tile_box(component, indices, tile_sizes))
        if crange is None:
            continue
        shape = crange.shape
        best = list(shape) if best is None else \
            [max(b, s) for b, s in zip(best, shape)]
    if best is None:
        raise LookupError(
            f"array {array_name} is never accessed in component "
            f"{component.label()}")
    return tuple(best)


def relevant_levels(component, array_name, tile_sizes) -> Tuple[int, ...]:
    """Levels whose tile index moves the hull: symbolic hulls of the
    all-first tile and its neighbour compared level by level."""
    relevant = []
    for level, node in enumerate(component.nodes):
        if math.ceil(node.N / tile_sizes[node.var]) <= 1:
            continue
        base = {n.var: 0 for n in component.nodes}
        shifted = dict(base, **{node.var: 1})
        range_a = access_range(
            component, array_name, tile_box(component, base, tile_sizes))
        range_b = access_range(
            component, array_name, tile_box(component, shifted, tile_sizes))
        if range_a is None or range_b is None:
            if (range_a is None) != (range_b is None):
                relevant.append(level)
            continue
        if not range_a.same_as(range_b):
            relevant.append(level)
    return tuple(relevant)


def range_shape(component, array_name, tile_sizes, widths):
    """(shape, bytes) of the first or remainder tile *widths* selects."""
    indices = {}
    for node in component.nodes:
        size = tile_sizes[node.var]
        width = widths.get(node.var, size)
        indices[node.var] = 0 if width == size else \
            math.ceil(node.N / size) - 1
    crange = access_range(
        component, array_name, tile_box(component, indices, tile_sizes))
    return ((), 0) if crange is None else (crange.shape, crange.bytes)
