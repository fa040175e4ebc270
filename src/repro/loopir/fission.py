"""Dependence-verified loop fission (distribution) over the loop IR.

Imperfect nests collapse into coarse, barely-tilable components because
the tree builder folds at the first untilable level.  Distributing a
loop's body over copies of the loop — classic loop fission — turns one
imperfect nest into several perfect (or more nearly perfect) sibling
nests, each its own tilable component for Algorithms 1/2 to optimize.

Legality is decided per loop, bottom-up, on the *original* kernel's
exact dependence set (:func:`repro.loopir.looptree.analyze_dependences`):

- A dependence carried strictly above the loop
  (:meth:`repro.poly.dependence.Dependence.confined_above`) relates
  instances from different iterations of an enclosing sequential loop;
  fission below that loop cannot reorder them — ignorable.
- A *forward* dependence (source textually before sink among the loop's
  body units) is preserved by any order-preserving distribution: after
  fission every source instance still runs before every sink instance.
- A *backward* dependence (source textually after sink — necessarily
  carried exactly at this loop) would invert, so the units it spans are
  merged into one group.

Groups are maximal contiguous runs between separable boundaries, so the
result is the finest order-preserving distribution the dependence set
can prove safe.  Group 0 keeps the original iterator name; group ``j``
gets a fresh header ``{var}__f{j}`` and its subtree is rewritten:
access subscripts and guards via affine renaming, ``compute`` callables
via a point-translation view, statement names untouched (statements
move, never duplicate).  Because every dependent instance pair keeps
its relative order, every read observes the identical value and the
fissioned kernel's float32 array states are bit-identical to the
original's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, \
    Set, Tuple, Union

from ..poly.access import Access
from ..poly.dependence import Dependence
from .ast import ComputeFn, Kernel, Loop, Stmt
from .looptree import analyze_dependences

BodyItem = Union[Loop, Stmt]


@dataclass(frozen=True)
class FissionSplit:
    """One loop the pass distributed into several sibling loops."""

    var: str                              # original iterator name
    new_vars: Tuple[str, ...]             # group headers, textual order
    groups: Tuple[Tuple[str, ...], ...]   # statement names per group

    def describe(self) -> str:
        parts = " | ".join(
            f"{v}:{{{', '.join(g)}}}"
            for v, g in zip(self.new_vars, self.groups))
        return f"{self.var} -> {parts}"


@dataclass
class FissionResult:
    """Outcome of :func:`fission_kernel`.

    *dependences* is the ``Dep`` set the legality decisions were made
    on: that of *original*.  When nothing was split (``changed`` is
    False) it is also the exact ``Dep`` set of *kernel*, so the front end
    hands it to :meth:`LoopTree.build` instead of analysing again.  A
    split kernel has new loops and shared prefixes and must be analysed
    afresh.
    """

    kernel: Kernel                        # distributed kernel
    original: Kernel
    splits: Tuple[FissionSplit, ...]
    renamed: Dict[str, str]               # new loop var -> original var
    dependences: Tuple[Dependence, ...]

    @property
    def changed(self) -> bool:
        return bool(self.splits)

    def describe(self) -> str:
        if not self.splits:
            return "fission: no legal distribution (kernel unchanged)"
        lines = [f"fission: {len(self.splits)} loop(s) distributed"]
        lines.extend(f"  {split.describe()}" for split in self.splits)
        return "\n".join(lines)


class _PointView(Mapping):
    """Read-only view translating original iterator names to renamed ones.

    A statement moved into a renamed loop still looks its iterators up
    under the original names; the view forwards those reads to the
    renamed keys of the VM's actual iteration point.  Views stack when
    nested splits rename several enclosing loops.
    """

    __slots__ = ("_point", "_alias")

    def __init__(self, point: Mapping[str, int], alias: Mapping[str, str]):
        self._point = point
        self._alias = alias

    def __getitem__(self, key: str):
        return self._point[self._alias.get(key, key)]

    def __iter__(self) -> Iterator[str]:
        inverse = {new: old for old, new in self._alias.items()}
        for key in self._point:
            yield inverse.get(key, key)

    def __len__(self) -> int:
        return len(self._point)


def _wrap_compute(fn: Optional[ComputeFn],
                  alias: Mapping[str, str]) -> Optional[ComputeFn]:
    if fn is None:
        return None
    frozen = dict(alias)

    def wrapped(arrays: Mapping[str, object],
                point: Mapping[str, int]) -> None:
        fn(arrays, _PointView(point, frozen))

    return wrapped


def _rename_item(item: BodyItem, mapping: Mapping[str, str]) -> BodyItem:
    """Deep-copy a body item with iterator *mapping* applied throughout."""
    if isinstance(item, Stmt):
        return Stmt(
            name=item.name,
            accesses=[
                Access(a.array,
                       tuple(e.rename(mapping) for e in a.indices),
                       a.kind)
                for a in item.accesses
            ],
            guards=[g.rename(mapping) for g in item.guards],
            compute=_wrap_compute(item.compute, mapping),
            flops=item.flops,
        )
    return Loop(
        var=mapping.get(item.var, item.var),
        n=item.n,
        body=[_rename_item(child, mapping) for child in item.body],
        begin=item.begin,
        stride=item.stride,
        guards=[g.rename(mapping) for g in item.guards],
    )


def _stmt_names(item: BodyItem) -> List[str]:
    if isinstance(item, Stmt):
        return [item.name]
    names: List[str] = []
    for child in item.body:
        names.extend(_stmt_names(child))
    return names


def backward_blockers(units_stmts: Sequence[Sequence[str]], var: str,
                      dependences: Sequence[Dependence]
                      ) -> List[Tuple[int, int, Dependence]]:
    """Backward dependence edges over a loop's body units.

    Returns ``(src_unit, dst_unit, dependence)`` triples with
    ``dst_unit < src_unit`` that are not confined strictly above *var* —
    exactly the edges an order-preserving distribution at *var* must not
    separate.
    """
    owner: Dict[str, int] = {}
    for index, names in enumerate(units_stmts):
        for name in names:
            owner[name] = index
    blockers: List[Tuple[int, int, Dependence]] = []
    for dep in dependences:
        src = owner.get(dep.src_stmt)
        dst = owner.get(dep.dst_stmt)
        if src is None or dst is None or src == dst:
            continue
        if dep.confined_above(var):
            continue
        if dst < src:
            blockers.append((src, dst, dep))
    return blockers


def _partition(count: int,
               blockers: Sequence[Tuple[int, int, Dependence]]
               ) -> List[List[int]]:
    """Maximal contiguous unit groups whose boundaries no blocker spans."""
    separable = [True] * count            # separable[b]: cut before unit b
    for src, dst, _ in blockers:
        for boundary in range(dst + 1, src + 1):
            separable[boundary] = False
    groups: List[List[int]] = []
    for index in range(count):
        if index and not separable[index]:
            groups[-1].append(index)
        else:
            groups.append([index])
    return groups


class _Fissioner:
    def __init__(self, kernel: Kernel, dependences: Sequence[Dependence]):
        self.kernel = kernel
        self.dependences = tuple(dependences)
        self.used_vars: Set[str] = {
            loop.var for loop, _ in kernel.walk_loops()}
        self.splits: List[FissionSplit] = []
        self.renamed: Dict[str, str] = {}

    def run(self) -> FissionResult:
        roots: List[Loop] = []
        for root in self.kernel.roots:
            roots.extend(self._distribute(root))
        if not self.splits:
            return FissionResult(
                self.kernel, self.kernel, (), {}, self.dependences)
        kernel = Kernel(
            self.kernel.name,
            list(self.kernel.arrays.values()),
            roots,
            self.kernel.constants,
        )
        return FissionResult(
            kernel, self.kernel, tuple(self.splits), dict(self.renamed),
            self.dependences)

    def _fresh_var(self, var: str, index: int) -> str:
        candidate = f"{var}__f{index}"
        while candidate in self.used_vars:
            index += 1
            candidate = f"{var}__f{index}"
        self.used_vars.add(candidate)
        return candidate

    def _distribute(self, loop: Loop) -> List[Loop]:
        """Distribute *loop* bottom-up; returns its replacement loops."""
        units: List[BodyItem] = []
        for item in loop.body:
            if isinstance(item, Loop):
                units.extend(self._distribute(item))
            else:
                units.append(item)

        groups = _partition(
            len(units),
            backward_blockers(
                [_stmt_names(u) for u in units], loop.var,
                self.dependences))
        if len(groups) <= 1:
            return [Loop(loop.var, loop.n, units, loop.begin,
                         loop.stride, loop.guards)]

        new_vars: List[str] = []
        out: List[Loop] = []
        for gi, members in enumerate(groups):
            body = [units[k] for k in members]
            if gi == 0:
                new_vars.append(loop.var)
                out.append(Loop(loop.var, loop.n, body, loop.begin,
                                loop.stride, loop.guards))
                continue
            var = self._fresh_var(loop.var, gi)
            mapping = {loop.var: var}
            out.append(Loop(
                var, loop.n,
                [_rename_item(item, mapping) for item in body],
                loop.begin, loop.stride, list(loop.guards)))
            new_vars.append(var)
            self.renamed[var] = loop.var
        self.splits.append(FissionSplit(
            var=loop.var,
            new_vars=tuple(new_vars),
            groups=tuple(
                tuple(n for k in members for n in _stmt_names(units[k]))
                for members in groups),
        ))
        return out


def fission_kernel(kernel: Kernel,
                   dependences: Sequence[Dependence] | None = None
                   ) -> FissionResult:
    """Maximal legal order-preserving loop distribution of *kernel*.

    The dependence set is computed on *kernel* itself unless supplied.
    When no loop can be split the original kernel object is returned
    unchanged (``result.changed`` is False).
    """
    if dependences is None:
        dependences = analyze_dependences(kernel)
    return _Fissioner(kernel, dependences).run()


def fission_plan(kernel: Kernel,
                 dependences: Sequence[Dependence] | None = None
                 ) -> Tuple[FissionSplit, ...]:
    """The splits :func:`fission_kernel` would perform, as data."""
    return fission_kernel(kernel, dependences).splits
