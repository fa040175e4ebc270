"""Value-flow dependence analysis via hierarchical direction vectors.

This module answers the two legality questions of Section 5.2.1 for the
restricted program class of Section 3.2 (rectangular domains, affine
accesses):

- which shared loop levels carry a dependence and with what sign
  (*direction vectors*), and
- whether a dependence can be *loop independent* (all shared levels equal,
  textual order decides).

The tester follows the classical Lamport/Banerjee scheme the paper refers
to: for each pair of accesses to the same array with at least one write,
build the affine system

    src in D_src  and  dst in D_dst  and  subscripts equal
    and the chosen direction prefix over the shared loops,

and decide feasibility with the rational Fourier–Motzkin test (plus a GCD
pre-test).  Directions are enumerated hierarchically outermost-first with
pruning, under the constraint that the first non-'=' level must be '<'
(source lexicographically before sink — pairs in ``Dep`` are ordered by the
original schedule).  The analysis is conservative: a rationally feasible
system is reported as a real dependence.

Each access pair's base system (both domains plus subscript equalities)
is densified into integer rows and GCD-tested once.  Every direction
probe, and the loop-independent test, then appends its ``t - s`` rows to
those dense rows instead of rebuilding a constraint system.  The direction
rows have coefficient gcd 1, so the base system's GCD verdict covers
every probe.  Verdicts are memoized per :class:`DependenceAnalyzer`,
keyed on the deduped dense rows: the key holds column positions, not
iterator names, so systems equal up to a renaming share one
elimination.  The memo dies with the analyzer; nothing is cached across
analyses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

from . import fm
from .access import Access
from .constraint import Constraint, ConstraintSystem
from .domain import Domain
from .schedule import Schedule

#: Direction encodings for distance component t - s at a shared loop level.
LT = "<"   # t > s : positive distance, dependence flows forward
EQ_DIR = "="   # t == s
GT = ">"   # t < s : negative distance (legal only below a '<' level)

_SRC = "s$"
_DST = "t$"


def carried_level(direction: Tuple[str, ...]):
    """Index of the first non-'=' component, or None if loop independent.

    Every admissible vector's first non-'=' component is '<' (the
    enumeration in :class:`DependenceAnalyzer` only emits such vectors),
    so this is the level whose sequential loop orders the two instances.
    """
    for index, sign in enumerate(direction):
        if sign != EQ_DIR:
            return index
    return None


@dataclass(frozen=True)
class Dependence:
    """One dependence edge of the ``Dep`` set (Eq. 2.1), summarised.

    Attributes
    ----------
    src_stmt, dst_stmt:
        Names of the source and sink statements.
    array:
        Name of the array through which the dependence flows.
    kind:
        ``"RAW"``, ``"WAR"`` or ``"WAW"``.
    shared_loops:
        The loops shared by both statements, outermost first.
    directions:
        Every feasible direction vector over the shared loops.  The empty
        tuple set means the dependence exists only between instances with
        identical shared iterators (loop independent).
    loop_independent:
        Whether an all-'=' dependence (textual order) is feasible.
    """

    src_stmt: str
    dst_stmt: str
    array: str
    kind: str
    shared_loops: Tuple[str, ...]
    directions: FrozenSet[Tuple[str, ...]]
    loop_independent: bool

    def carried_by(self, loop: str) -> bool:
        """True when some direction vector is first-nonzero at *loop*."""
        if loop not in self.shared_loops:
            return False
        level = self.shared_loops.index(loop)
        for direction in self.directions:
            if direction[level] == LT and all(
                    d == EQ_DIR for d in direction[:level]):
                return True
        return False

    def component_signs(self, loop: str) -> FrozenSet[str]:
        """All direction symbols occurring at *loop* over feasible vectors."""
        if loop not in self.shared_loops:
            return frozenset()
        level = self.shared_loops.index(loop)
        return frozenset(d[level] for d in self.directions)

    def has_nonzero_at(self, loop: str) -> bool:
        """Paper's parallelization criterion: any non-'=' component at loop."""
        signs = self.component_signs(loop)
        return bool(signs - {EQ_DIR})

    def confined_above(self, loop: str) -> bool:
        """True when every instance pair lies in one iteration of *loop*'s
        ancestors — i.e. the dependence is carried strictly above *loop*.

        Such a dependence never relates instances from different
        iterations of any loop at or below *loop*, so a transform that
        only reorders statements within one iteration of the enclosing
        nest (loop fission at *loop*) cannot violate it.
        """
        if loop not in self.shared_loops:
            return False
        if self.loop_independent:
            return False
        level = self.shared_loops.index(loop)
        for direction in self.directions:
            carried = carried_level(direction)
            if carried is None or carried >= level:
                return False
        return True

    def __repr__(self) -> str:
        dirs = ",".join("".join(d) for d in sorted(self.directions)) or "-"
        li = "+LI" if self.loop_independent else ""
        return (f"Dep[{self.kind}] {self.src_stmt} -> {self.dst_stmt} "
                f"via {self.array} ({dirs}{li})")


@dataclass
class StatementInfo:
    """What the tester needs to know about one statement."""

    name: str
    domain: Domain
    schedule: Schedule
    accesses: Sequence[Access]


def shared_prefix(a: Sequence[str], b: Sequence[str]) -> Tuple[str, ...]:
    """Longest common prefix of two iterator name sequences."""
    out = []
    for x, y in zip(a, b):
        if x != y:
            break
        out.append(x)
    return tuple(out)


class DependenceAnalyzer:
    """Computes the ``Dep`` set for a list of statements.

    Holds the feasibility memo of one analysis (see the module notes).
    """

    def __init__(self, statements: Sequence[StatementInfo]):
        self._stmts = list(statements)
        self._verdicts: Dict[FrozenSet[fm.Row], bool] = {}

    def analyze(self) -> List[Dependence]:
        """All dependences between every ordered statement pair."""
        deps: List[Dependence] = []
        for src in self._stmts:
            for dst in self._stmts:
                deps.extend(self._pair_dependences(src, dst))
        return deps

    def _feasible(self, rows: List[fm.Row]) -> bool:
        """Rational feasibility of dense integer rows, memoized."""
        rows = fm.dedupe(rows)
        key = frozenset(rows)
        verdict = self._verdicts.get(key)
        if verdict is None:
            nvars = len(rows[0][0]) if rows else 0
            verdict = bool(fm.eliminate(rows, nvars))
            self._verdicts[key] = verdict
        return verdict

    # -- one statement pair ----------------------------------------------

    def _pair_dependences(self, src: StatementInfo,
                          dst: StatementInfo) -> List[Dependence]:
        shared = shared_prefix(src.domain.iterators, dst.domain.iterators)
        deps = []
        for src_access in src.accesses:
            for dst_access in dst.accesses:
                if src_access.array.name != dst_access.array.name:
                    continue
                if src_access.is_read and dst_access.is_read:
                    continue
                kind = _dependence_kind(src_access, dst_access)
                dep = self._test_access_pair(
                    src, dst, src_access, dst_access, shared, kind)
                if dep is not None:
                    deps.append(dep)
        return deps

    def _test_access_pair(self, src, dst, src_access, dst_access,
                          shared, kind):
        base = self._base_system(src, dst, src_access, dst_access)
        variables = sorted(base.variables())
        if not fm.gcd_test(base, variables):
            return None
        rows = fm.to_rows(base, variables)
        if rows is None or not self._feasible(rows):
            return None

        index = {v: i for i, v in enumerate(variables)}
        steps = [_direction_rows(len(variables), index[_SRC + var],
                                 index[_DST + var]) for var in shared]
        loop_independent = self._loop_independent_feasible(
            src, dst, rows, steps)

        directions = set()
        if shared:
            self._enumerate(rows, steps, [], directions)

        if not directions and not loop_independent:
            return None
        return Dependence(
            src_stmt=src.name,
            dst_stmt=dst.name,
            array=src_access.array.name,
            kind=kind,
            shared_loops=shared,
            directions=frozenset(directions),
            loop_independent=loop_independent,
        )

    # -- system construction ------------------------------------------------

    def _base_system(self, src, dst, src_access, dst_access) -> ConstraintSystem:
        """Domains of both instances plus subscript equality."""
        system = ConstraintSystem()
        system.extend(src.domain.constraints(prefix=_SRC))
        system.extend(dst.domain.constraints(prefix=_DST))
        src_map = {v: _SRC + v for v in src.domain.iterators}
        dst_map = {v: _DST + v for v in dst.domain.iterators}
        for src_idx, dst_idx in zip(src_access.indices, dst_access.indices):
            lhs = src_idx.rename(src_map)
            rhs = dst_idx.rename(dst_map)
            system.add(Constraint.eq(lhs, rhs))
        return system

    def _loop_independent_feasible(self, src, dst, rows, steps) -> bool:
        """All shared levels '=' and src textually precedes dst."""
        depth = len(steps)
        src_statics = src.schedule.statics_below(depth)
        dst_statics = dst.schedule.statics_below(depth)
        if src.name == dst.name:
            # Same instance: not a dependence between distinct instances.
            return False
        width = min(len(src_statics), len(dst_statics))
        from .affine import lex_compare
        if lex_compare(src_statics[:width], dst_statics[:width]) >= 0:
            return False
        return self._feasible(
            [*rows, *(row for step in steps for row in step[EQ_DIR])])

    def _enumerate(self, rows, steps, prefix, out):
        """Hierarchical direction enumeration with feasibility pruning.

        *rows* is the base system plus the rows of the chosen *prefix*;
        each candidate direction at the next level appends its own.
        """
        level = len(prefix)
        if level == len(steps):
            if any(d == LT for d in prefix):
                out.add(tuple(prefix))
            return

        # Before the first '<', only '<' and '=' are admissible (the source
        # must precede the sink lexicographically).
        first_lt_seen = LT in prefix
        candidates = (LT, EQ_DIR, GT) if first_lt_seen else (LT, EQ_DIR)

        for direction in candidates:
            system = [*rows, *steps[level][direction]]
            if self._feasible(system):
                self._enumerate(system, steps, [*prefix, direction], out)


def _direction_rows(nvars: int, src: int, dst: int
                    ) -> Dict[str, Tuple[fm.Row, ...]]:
    """Dense rows of each direction between columns *src* (s) and *dst* (t).

    ``<`` is t - s - 1 >= 0, ``>`` is s - t - 1 >= 0 and ``=`` is
    t - s == 0 as two rows.  Every row has coefficient gcd 1, so appending
    them never changes the base system's GCD-test verdict.
    """
    def row(src_coeff: int, const: int) -> fm.Row:
        coeffs = [0] * nvars
        coeffs[src] = src_coeff
        coeffs[dst] = -src_coeff
        return tuple(coeffs), const

    return {LT: (row(-1, -1),), GT: (row(1, -1),),
            EQ_DIR: (row(-1, 0), row(1, 0))}


def _dependence_kind(src_access: Access, dst_access: Access) -> str:
    if src_access.is_write and dst_access.is_write:
        return "WAW"
    if src_access.is_write:
        return "RAW"
    return "WAR"


def concrete_pairs(src: StatementInfo, dst: StatementInfo,
                   dependence: Dependence, limit: int = 2000):
    """Enumerate concrete (source point, sink point) dependent pairs.

    Brute-force over both domains; intended for small test kernels as an
    oracle against the analytic direction vectors and for the Eq. 5.1
    schedule-legality re-check.
    """
    src_access = _find_access(src, dependence, want_write=dependence.kind != "WAR")
    dst_access = _find_access(dst, dependence,
                              want_write=dependence.kind in ("WAW", "WAR"))
    pairs = []
    for src_point in src.domain.points():
        src_elem = src_access.element(src_point)
        for dst_point in dst.domain.points():
            if dst_access.element(dst_point) != src_elem:
                continue
            src_ts = src.schedule.evaluate(src_point)
            dst_ts = dst.schedule.evaluate(dst_point)
            width = min(len(src_ts), len(dst_ts))
            from .affine import lex_compare
            if lex_compare(src_ts[:width], dst_ts[:width]) < 0:
                pairs.append((src_point, dst_point))
                if len(pairs) >= limit:
                    return pairs
    return pairs


def _find_access(info: StatementInfo, dependence: Dependence,
                 want_write: bool) -> Access:
    for access in info.accesses:
        if access.array.name == dependence.array and \
                access.is_write == want_write:
            return access
    raise LookupError(
        f"statement {info.name} has no matching access to {dependence.array}")
