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

A hull's shape depends on neither the outer iteration nor the platform,
only on the tile's box, and searches ask for it under thousands of tile
sizes.  So each array's accesses are compiled once per component into a
:class:`RangeProgram` of integer rows: per access and dimension a
constant pair (inner loops already folded in), ``(band level, coeff)``
rows and the outer-iterator *signature*; per access its single-iterator
guards as integer intervals.  A hull is then integer min/max over the
accesses' ``(lo, hi)`` pairs, with one widening rule: two accesses whose
signatures differ in a dimension make that dimension the full array
extent (signature empty), and later accesses fold into the widened
bounds as into any other.  :func:`access_range` turns a hull back into
symbolic bounds for the consumers that need them (swap calls, the
static verifier).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

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


def tile_interval(node, index: int, size: int) -> Tuple[int, int]:
    """Iterator bounds of tile *index* of one band level under tile size
    *size*; the last tile is clipped to the level's extent."""
    first = index * size
    last = min((index + 1) * size, node.N) - 1
    if first > last:
        raise ValueError(
            f"tile {index} of {node.var} is empty "
            f"(N={node.N}, K={size})")
    return node.begin + first * node.S, node.begin + last * node.S


def tile_box(component: TilableComponent,
             tile_indices: Mapping[str, int],
             tile_sizes: Mapping[str, int]) -> Dict[str, Tuple[int, int]]:
    """Iterator bounds of one tile: band levels restricted to their
    iteration range, inner (folded) loops at full extent."""
    box = dict(component.full_inner_box())
    for node in component.nodes:
        box[node.var] = tile_interval(
            node, tile_indices[node.var], tile_sizes[node.var])
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


#: The signature of a bound with no outer-iterator terms.
_CONSTANT = ()

#: One compiled access: ``(is_read, is_write, clamps, dims)``.
_Access = Tuple[bool, bool, Tuple[Tuple[int, int, int], ...],
                Tuple[Tuple[Tuple, int, int, Tuple[Tuple[int, int], ...]],
                      ...]]

#: Per array dimension ``(signature, lo, hi)``: the hull's bounds are
#: ``sum(coeff * var for var, coeff in signature) + lo`` and ``... + hi``.
Hull = Tuple[Tuple[Tuple, int, int], ...]


class RangeProgram:
    """The accesses of one array in one component, compiled to integers.

    Built once per component and array (:meth:`TileGeometry.program`),
    then evaluated for any tile box of the component's band levels,
    given as one ``(lo, hi)`` pair per band level.  Per access:

    - ``clamps``: its single-iterator guards over band iterators,
      reduced to one ``(band index, lo, hi)`` interval per iterator;
    - ``dims``: per array dimension a signature — the outer-iterator
      terms as a sorted ``(var, coeff)`` tuple — the ``lo``/``hi``
      constants with the inner (folded) loops' full ranges, narrowed by
      their guards, already folded in, and ``(band index, coeff)`` rows.

    An access whose guards exclude it from every tile (an equality with
    no integer solution, an empty inner range) is dropped at compile
    time.  Guards over several iterators or over outer iterators are
    ignored, so the hull stays conservative, never too small.
    """

    def __init__(self, component: TilableComponent, array_name: str):
        pairs = component.accesses(array_name)
        self.array: Optional[Array] = pairs[0][1].array if pairs else None
        band = component.band_vars
        index = {var: i for i, var in enumerate(band)}
        inner = component.full_inner_box()
        self.accesses: List[_Access] = []
        for stmt, access in pairs:
            compiled = _compile_access(
                access, _stmt_guards(component, stmt), index, inner)
            if compiled is not None:
                self.accesses.append(
                    (access.is_read, access.is_write) + compiled)
        #: Per dimension, the band iterators its rows read, in band order.
        self.support: List[Tuple[str, ...]] = []
        for dim in range(self.array.ndim if self.array is not None else 0):
            used = {i for *_, dims in self.accesses for i, _ in dims[dim][3]}
            self.support.append(
                tuple(var for i, var in enumerate(band) if i in used))

    def hull(self, box: Sequence[Tuple[int, int]], reads: bool = True,
             writes: bool = True) -> Optional[Hull]:
        """Hull of the selected accesses over the band *box*; None when
        no selected access is active in it.

        Per dimension, accesses with equal signatures fold to integer
        min/max of their bounds; a signature mismatch widens the
        dimension to the full array extent, with the constant signature,
        and later accesses fold into that."""
        out: Optional[List[Tuple[Tuple, int, int]]] = None
        for is_read, is_write, clamps, dims in self.accesses:
            if not ((reads and is_read) or (writes and is_write)):
                continue
            narrowed = _narrow(box, clamps) if clamps else box
            if narrowed is None:
                continue
            bounds = []
            for sig, lo, hi, rows in dims:
                for i, coeff in rows:
                    first, last = narrowed[i]
                    if coeff >= 0:
                        lo += coeff * first
                        hi += coeff * last
                    else:
                        lo += coeff * last
                        hi += coeff * first
                bounds.append((sig, lo, hi))
            if out is None:
                out = bounds
                continue
            for dim, (sig, lo, hi) in enumerate(bounds):
                cur_sig, cur_lo, cur_hi = out[dim]
                if cur_sig == sig:
                    out[dim] = (sig, min(cur_lo, lo), max(cur_hi, hi))
                else:
                    out[dim] = (_CONSTANT, 0, self.array.shape[dim] - 1)
        return None if out is None else tuple(out)

    def canonical(self, hull: Hull) -> CanonicalRange:
        """The symbolic :class:`CanonicalRange` of a :meth:`hull`."""
        return CanonicalRange(
            self.array,
            tuple(AffineExpr(dict(sig), lo) for sig, lo, _ in hull),
            tuple(AffineExpr(dict(sig), hi) for sig, _, hi in hull))


def hull_shape(hull: Hull) -> Tuple[int, ...]:
    """Per-dimension extent of a :meth:`RangeProgram.hull`."""
    return tuple(hi - lo + 1 for _, lo, hi in hull)


def _compile_access(access: Access, guards, index: Mapping[str, int],
                    inner: Mapping[str, Tuple[int, int]]):
    """``(clamps, dims)`` of one access (see :class:`RangeProgram`), or
    None when its guards exclude it from every tile."""
    limits: Dict[str, Tuple[float, float]] = {}
    for guard in guards:
        variables = guard.variables()
        if len(variables) != 1:
            continue
        (var,) = variables
        if var not in index and var not in inner:
            continue
        coeff = guard.expr.coeff(var)
        const = guard.expr.constant
        lo, hi = limits.get(var, (-math.inf, math.inf))
        if guard.kind == EQ:
            if const % coeff != 0:
                return None
            value = -const // coeff
            lo, hi = max(lo, value), min(hi, value)
        elif coeff > 0:
            lo = max(lo, -(const // coeff))        # ceil(-const / coeff)
        else:
            hi = min(hi, -const // coeff)          # floor(-const / coeff)
        limits[var] = (lo, hi)

    inner_box = dict(inner)
    clamps = []
    for var, (lo, hi) in limits.items():
        if var in index:
            clamps.append((index[var], lo, hi))
            continue
        first, last = inner_box[var]
        first, last = max(first, lo), min(last, hi)
        if first > last:
            return None
        inner_box[var] = (first, last)

    dims = []
    for expr in access.indices:
        lo = hi = expr.constant
        rows = []
        sig = []
        for var, coeff in expr.terms():
            if var in index:
                rows.append((index[var], coeff))
            elif var in inner_box:
                first, last = inner_box[var]
                if coeff >= 0:
                    lo += coeff * first
                    hi += coeff * last
                else:
                    lo += coeff * last
                    hi += coeff * first
            else:
                sig.append((var, coeff))
        dims.append((tuple(sig), lo, hi, tuple(rows)))
    return tuple(clamps), tuple(dims)


def _narrow(box: Sequence[Tuple[int, int]], clamps
            ) -> Optional[List[Tuple[int, int]]]:
    """*box* intersected with an access's guard clamps; None if empty."""
    narrowed = list(box)
    for i, lo_limit, hi_limit in clamps:
        lo, hi = narrowed[i]
        if lo_limit > lo:
            lo = lo_limit
        if hi_limit < hi:
            hi = hi_limit
        if lo > hi:
            return None
        narrowed[i] = (lo, hi)
    return narrowed


def access_range(component: TilableComponent, array_name: str,
                 box: Mapping[str, Tuple[int, int]], *,
                 reads: bool = True, writes: bool = True
                 ) -> Optional[CanonicalRange]:
    """Hull of the selected accesses to *array_name* over one tile box.

    Returns None when no selected access is active in the tile.  By
    default the hull covers every access, the tile's streaming range;
    restricting to ``reads`` or ``writes`` yields the tile's read or
    write footprint the race detector needs.  Dimension bounds are
    symbolic over outer iterators; when two accesses disagree on outer
    coefficients the dimension conservatively widens to the full array
    extent.  *box* is a :func:`tile_box`: only its band levels are
    read, inner loops always span their full range.  Evaluated by the
    component's :class:`RangeProgram` for *array_name*.
    """
    program = component.geometry.program(array_name)
    hull = program.hull(
        [box[var] for var in component.band_vars], reads, writes)
    return None if hull is None else program.canonical(hull)


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
