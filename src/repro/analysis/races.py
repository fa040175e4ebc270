"""Inter-core race detection on main memory (PREM1xx).

Concurrency model: the schedule orders segments *within* one core (and
serialises DMA ops through the single round-robin engine), but it never
synchronises execution phases **across** cores — any segment of core
``i`` may overlap any segment of core ``j != i``.  Race freedom must
therefore hold for the cores' *entire* footprints: the per-core,
per-array read/write hulls from :meth:`AnalysisContext.array_footprints`
(derived from the tiling solution, independently of the swap planner).

Two cores conflict on an array when a write hull of one overlaps —
under the conservative symbolic test of
:func:`repro.prem.ranges.ranges_overlap` — a write hull (PREM101) or a
read hull (PREM102) of the other.  Symbolically-offset hulls such as
LSTM's ``c_F[t]`` written against ``c_F[t-1]`` read compare exactly:
matching outer coefficients reduce the test to constant intervals.

One diagnostic is reported per (array, core pair, kind); cores rarely
conflict on just one tile, and a per-hull report would drown the
signal.

The overlap test runs over arrays, not hull pairs.  Once per call, each
array's write hulls of every core, and its read hulls of every core,
are encoded as integer matrices (hulls × dimensions) of lower/upper
constants and coefficient-signature ids.  :func:`ranges_overlap` over
all writes × all hulls of the other kind is then a broadcast
comparison, and each ordered core pair's first overlapping pair in
write-major order — the pair the nested scalar scan over that core
pair would return, and so the diagnostic text — is the first true cell
of its block of the result.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

from ..prem.ranges import CanonicalRange
from .diagnostics import Diagnostic
from .model import AnalysisContext

SOURCE = "races"

#: A bound's coefficient map as a hashable key.
Signature = Tuple[Tuple[str, object], ...]

#: Cells (write hulls × other hulls × dimensions) one block of the
#: overlap test compares at once: the temporaries stay this small
#: whatever the tile count.
_BLOCK_CELLS = 1 << 18


class _Hulls(NamedTuple):
    """One array's hulls of every core, in core order, as integer
    matrices of shape hulls × dimensions."""

    ranges: Tuple[CanonicalRange, ...]
    core: NDArray[np.int64]      # the core each hull belongs to
    lo: NDArray[np.int64]        # lower-bound constants
    hi: NDArray[np.int64]        # upper-bound constants
    lo_sig: NDArray[np.int64]    # lower-bound coefficient-signature ids
    hi_sig: NDArray[np.int64]    # upper-bound coefficient-signature ids


#: The first overlapping ``(write, other)`` hull pair of each ordered
#: ``(writing core, other core)`` pair that has one.
Conflicts = Dict[Tuple[int, int], Tuple[CanonicalRange, CanonicalRange]]


def check_races(ctx: AnalysisContext) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    footprints = ctx.array_footprints()
    names = sorted(ctx.component.arrays())
    signatures: Dict[Signature, int] = {}
    for name in names:
        cores = [core for core in sorted(footprints)
                 if name in footprints[core]]
        writes = _encode([(core, footprints[core][name].writes)
                          for core in cores], signatures)
        reads = _encode([(core, footprints[core][name].reads)
                         for core in cores], signatures)
        write_write = _conflicts(writes, writes)
        write_read = _conflicts(writes, reads)
        for a, b in combinations(cores, 2):
            conflict = write_write.get((a, b))
            if conflict is not None:
                out.append(Diagnostic(
                    "PREM101",
                    f"cores {a} and {b} both write {conflict[0]!r} / "
                    f"{conflict[1]!r}; their segments are not ordered "
                    f"across cores",
                    core=a, array=name, component=ctx.label,
                    hint="tile boundaries must separate written ranges "
                         "across thread groups",
                    source=SOURCE))
            conflict = write_read.get((a, b)) or write_read.get((b, a))
            if conflict is not None:
                out.append(Diagnostic(
                    "PREM102",
                    f"one of cores {a}/{b} writes {conflict[0]!r} while "
                    f"the other reads {conflict[1]!r} concurrently",
                    core=a, array=name, component=ctx.label,
                    hint="cross-core read-after-write needs a component "
                         "boundary, not a segment boundary",
                    source=SOURCE))
    return out


def _encode(per_core: Sequence[Tuple[int, Tuple[CanonicalRange, ...]]],
            signatures: Dict[Signature, int]) -> _Hulls:
    """Encode each core's hulls, in the given order; *signatures*
    numbers each distinct coefficient map, so two bounds share an id
    exactly when :meth:`AffineExpr.same_coeffs` holds between them."""
    ranges = tuple(hull for _core, hulls in per_core for hull in hulls)
    dims = len(ranges[0].lo) if ranges else 0
    bounds = [bound for hull in ranges for bound in hull.lo] + \
        [bound for hull in ranges for bound in hull.hi]
    constants = [bound.constant for bound in bounds]
    # Integer subscripts over integer boxes: never a Fraction.
    assert all(isinstance(constant, int) for constant in constants)
    ids = [signatures.setdefault(tuple(bound.terms()), len(signatures))
           for bound in bounds]
    (lo, hi), (lo_sig, hi_sig) = np.array(
        [constants, ids], dtype=np.int64).reshape(2, 2, len(ranges), dims)
    core = np.array([core for core, hulls in per_core for _ in hulls],
                    dtype=np.int64)
    return _Hulls(ranges, core, lo, hi, lo_sig, hi_sig)


def _conflicts(writes: _Hulls, others: _Hulls) -> Conflicts:
    """For every ordered pair of distinct cores, the first ``(write,
    other)`` pair in write-major order that :func:`repro.prem.ranges.
    ranges_overlap` does not prove disjoint."""
    found: Conflicts = {}
    count = len(others.ranges)
    if not writes.ranges or not count:
        return found
    stride = int(max(writes.core.max(), others.core.max())) + 1
    # A dimension proves a pair disjoint when one hull's upper bound
    # shares its coefficients with the other's lower bound and its
    # constant lies below it.
    other_lo, other_hi = others.lo[None], others.hi[None]
    other_lo_sig, other_hi_sig = others.lo_sig[None], others.hi_sig[None]
    other_core = others.core[None]
    step = max(1, _BLOCK_CELLS // (count * max(writes.lo.shape[1], 1)))
    for start in range(0, len(writes.ranges), step):
        rows = slice(start, start + step)
        lo, hi = writes.lo[rows, None], writes.hi[rows, None]
        disjoint = (writes.hi_sig[rows, None] == other_lo_sig) & \
            (hi < other_lo)
        disjoint |= (other_hi_sig == writes.lo_sig[rows, None]) & \
            (other_hi < lo)
        write_core = writes.core[rows, None]
        overlap = ~disjoint.any(axis=2) & (write_core != other_core)
        if not overlap.any():
            continue
        # Cells in row-major order; each core pair's block is one run
        # of rows × one run of columns, so its first cell here is its
        # first pair in write-major order.
        row, col = np.nonzero(overlap)
        pairs = write_core[row, 0] * stride + other_core[0, col]
        _keys, first = np.unique(pairs, return_index=True)
        for cell in first.tolist():
            w, o = start + int(row[cell]), int(col[cell])
            found.setdefault(
                (int(writes.core[w]), int(others.core[o])),
                (writes.ranges[w], others.ranges[o]))
    return found
