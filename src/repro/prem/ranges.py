"""Canonical data element ranges and bounding boxes (Section 5.3.1).

For one tile of a tilable component and one array, the canonical data
element range is the rectangular hull of every element the tile's
statements may touch: per array dimension the min and max subscript value
over the tile's iteration box.  For affine subscripts over a box the
extremes sit at box corners, so the hull is exact interval arithmetic.

Subscripts may also involve iterators of loops *enclosing* the component
(LSTM's ``inp_F[t][p]`` depends on the outer time loop).  Those stay
symbolic: a range's per-dimension bounds are affine expressions over the
outer iterators, while its *shape* (max - min + 1) is always an integer —
which is why memory-phase lengths and bounding boxes are independent of
the outer iteration, exactly as the paper's timing model assumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..loopir.component import TilableComponent
from ..poly.access import Access, Array
from ..poly.affine import AffineExpr
from ..poly.constraint import EQ
from ..timing.memory import transfer_bytes, transfer_time_ns


def partial_bounds(expr: AffineExpr, box: Mapping[str, Tuple[int, int]]
                   ) -> Tuple[AffineExpr, AffineExpr]:
    """[min, max] of *expr* over *box*, leaving other variables symbolic.

    The two constants accumulate as plain numbers and the two bounds,
    which share the symbolic terms, are built once at the end."""
    lo = hi = expr.constant
    outer = {}
    for var, coeff in expr.terms():
        bounds = box.get(var)
        if bounds is None:
            outer[var] = coeff
        elif coeff >= 0:
            lo += coeff * bounds[0]
            hi += coeff * bounds[1]
        else:
            lo += coeff * bounds[1]
            hi += coeff * bounds[0]
    return AffineExpr(outer, lo), AffineExpr(outer, hi)


@dataclass(frozen=True)
class CanonicalRange:
    """The rectangular hull of one array's accesses within one tile."""

    array: Array
    lo: Tuple[AffineExpr, ...]
    hi: Tuple[AffineExpr, ...]

    @property
    def shape(self) -> Tuple[int, ...]:
        """``Shape(R_a)`` — per-dimension extent (always concrete)."""
        out = []
        for lo, hi in zip(self.lo, self.hi):
            # hi - lo is constant exactly when the coefficient maps match.
            if not lo.same_coeffs(hi):
                raise ValueError(
                    f"range of {self.array.name} has non-constant extent: "
                    f"[{lo!r}, {hi!r}]")
            out.append(int(hi.constant - lo.constant) + 1)
        return tuple(out)

    @property
    def elements(self) -> int:
        total = 1
        for extent in self.shape:
            total *= extent
        return total

    @property
    def bytes(self) -> int:
        return transfer_bytes(self.shape, self.array.element_size)

    def transfer_ns(self, platform) -> float:
        """Memory-phase contribution of this range (Section 4.2)."""
        return transfer_time_ns(
            self.shape, self.array.shape, self.array.element_size, platform)

    def concrete(self, outer: Mapping[str, int] | None = None
                 ) -> Tuple[Tuple[int, int], ...]:
        """Per-dimension inclusive [min, max] under concrete outer values."""
        outer = outer or {}
        out = []
        for lo, hi in zip(self.lo, self.hi):
            out.append((int(lo.evaluate(outer)), int(hi.evaluate(outer))))
        return tuple(out)

    def address_offset(self, outer: Mapping[str, int] | None = None) -> int:
        """Row-major element offset of the range's first element
        (Section 5.3.2's AddressOffset)."""
        bounds = self.concrete(outer)
        offset = 0
        for (lo, _), extent in zip(bounds, self.array.shape):
            offset = offset * extent + lo
        return offset

    def same_as(self, other: "CanonicalRange") -> bool:
        """Symbolic equality of two ranges (same hull for every outer
        iteration)."""
        return self.lo == other.lo and self.hi == other.hi

    def __repr__(self) -> str:
        dims = "".join(
            f"[{lo!r}..{hi!r}]" for lo, hi in zip(self.lo, self.hi))
        return f"R({self.array.name}{dims})"


def tile_box(component: TilableComponent,
             tile_indices: Mapping[str, int],
             tile_sizes: Mapping[str, int]) -> Dict[str, Tuple[int, int]]:
    """Iterator bounds of one tile: band levels restricted to their
    iteration range, inner (folded) loops at full extent."""
    box = dict(component.full_inner_box())
    for node in component.nodes:
        size = tile_sizes[node.var]
        index = tile_indices[node.var]
        first = index * size
        last = min((index + 1) * size, node.N) - 1
        if first > last:
            raise ValueError(
                f"tile {index} of {node.var} is empty "
                f"(N={node.N}, K={size})")
        box[node.var] = (node.begin + first * node.S,
                         node.begin + last * node.S)
    return box


def _stmt_guards(component: TilableComponent, stmt) -> list:
    """All guards constraining the statement: its own plus those of every
    surrounding loop (e.g. the ``t > 0`` gates in LSTM).  Cached on the
    kernel object — this sits on the optimizer's hot path."""
    kernel = component.kernel
    cache = getattr(kernel, "_guard_cache", None)
    if cache is None:
        cache = {}
        kernel._guard_cache = cache
    guards = cache.get(stmt.name)
    if guards is None:
        guards = list(stmt.guards)
        for loop in kernel.surrounding_loops(stmt.name):
            guards.extend(loop.guards)
        cache[stmt.name] = guards
    return guards


def _narrow_with_guards(guards, box: Mapping[str, Tuple[int, int]]
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


def canonical_range(component: TilableComponent, array_name: str,
                    box: Mapping[str, Tuple[int, int]]
                    ) -> Optional[CanonicalRange]:
    """Hull of all accesses to *array_name* over one tile box.

    Returns None when no statement touching the array is active in the
    tile.  Dimension bounds are symbolic over outer iterators; when two
    accesses disagree on outer coefficients the dimension conservatively
    widens to the full array extent.
    """
    return access_range(component, array_name, box)


def access_range(component: TilableComponent, array_name: str,
                 box: Mapping[str, Tuple[int, int]], *,
                 reads: bool = True, writes: bool = True
                 ) -> Optional[CanonicalRange]:
    """Hull of the selected accesses to *array_name* over one tile box.

    The generalisation of :func:`canonical_range` the race detector
    needs: restricting to ``reads`` or ``writes`` yields the tile's read
    or write footprint instead of the combined streaming hull.  Same
    conservatism rules: symbolic over outer iterators, widened to the
    full extent on coefficient mismatch, None when no selected access is
    active in the tile.
    """
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
        narrowed = _narrow_with_guards(_stmt_guards(component, stmt), box)
        if narrowed is None:
            continue
        active = True
        for dim, expr in enumerate(access.indices):
            dim_lo, dim_hi = partial_bounds(expr, narrowed)
            lo[dim] = _symbolic_min(lo[dim], dim_lo, array, dim, True)
            hi[dim] = _symbolic_min(hi[dim], dim_hi, array, dim, False)
    if not active:
        return None
    return CanonicalRange(array, tuple(lo), tuple(hi))


def _symbolic_min(current: Optional[AffineExpr], candidate: AffineExpr,
                  array: Array, dim: int, take_min: bool) -> AffineExpr:
    """min/max of affine bounds; widens to the array extent on coefficient
    mismatch (conservative hull)."""
    if current is None:
        return candidate
    if current.same_coeffs(candidate):
        if take_min:
            keep = current.constant <= candidate.constant
        else:
            keep = current.constant >= candidate.constant
        return current if keep else candidate
    return AffineExpr.const(0 if take_min else array.shape[dim] - 1)


def ranges_overlap(a: CanonicalRange, b: CanonicalRange) -> bool:
    """Conservative symbolic overlap test between two hulls.

    Dimensions whose bounds share outer coefficients are compared as
    intervals on the constant part; any dimension that can be shown
    disjoint makes the ranges disjoint.  Otherwise overlap is assumed.
    """
    for (a_lo, a_hi), (b_lo, b_hi) in zip(zip(a.lo, a.hi), zip(b.lo, b.hi)):
        if a_hi.same_coeffs(b_lo) and a_hi.constant < b_lo.constant:
            return False
        if b_hi.same_coeffs(a_lo) and b_hi.constant < a_lo.constant:
            return False
    return True


def bounding_box(component: TilableComponent, array_name: str,
                 tile_sizes: Mapping[str, int]) -> Tuple[int, ...]:
    """``BoundingBox(a)`` — per-dimension max shape over all tiles.

    Hulls are monotone in the tile box, so the full (non-remainder) tile
    dominates every boundary tile; sampling first/last tiles per level
    covers guard-activated statements as well.
    """
    samples = _sample_tiles(component, tile_sizes)
    best: Optional[List[int]] = None
    for indices in samples:
        box = tile_box(component, indices, tile_sizes)
        crange = canonical_range(component, array_name, box)
        if crange is None:
            continue
        shape = crange.shape
        if best is None:
            best = list(shape)
        else:
            best = [max(b, s) for b, s in zip(best, shape)]
    if best is None:
        raise LookupError(
            f"array {array_name} is never accessed in component "
            f"{component.label()}")
    return tuple(best)


def _sample_tiles(component: TilableComponent,
                  tile_sizes: Mapping[str, int]) -> Iterable[Dict[str, int]]:
    """First and last tile index per level, crossed over levels."""
    per_level: List[List[int]] = []
    for node in component.nodes:
        size = tile_sizes[node.var]
        count = -(-node.N // size)
        per_level.append(sorted({0, count - 1}))

    def recurse(level: int, chosen: Dict[str, int]):
        if level == len(component.nodes):
            yield dict(chosen)
            return
        var = component.nodes[level].var
        for index in per_level[level]:
            chosen[var] = index
            yield from recurse(level + 1, chosen)

    yield from recurse(0, {})
