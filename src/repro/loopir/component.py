"""Tilable components (Section 3.4).

A tilable component is an ordered sequence of perfectly nested loop-tree
levels ``(l_1, ..., l_L)``; the framework tiles its loops, maps tiles to
threads, and builds a PREM streaming schedule for it.  This module only
captures the *structure*; tiling parameters live in
:class:`repro.opt.solution.Solution`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, Mapping, Sequence, Tuple

from ..poly.access import Access, Array
from .ast import Kernel, Loop, Stmt
from .looptree import LoopTree, LoopTreeNode

if TYPE_CHECKING:
    from ..prem.segments import TileGeometry


@dataclass(frozen=True)
class TilableComponent:
    """A chain of loop-tree levels tiled and scheduled together.

    Attributes
    ----------
    tree:
        The owning loop tree (gives access to kernel and dependences).
    nodes:
        The chain ``(l_1, ..., l_L)``, outermost first.
    """

    tree: LoopTree
    nodes: Tuple[LoopTreeNode, ...]

    def __post_init__(self):
        if not self.nodes:
            raise ValueError("a tilable component needs at least one level")
        for parent, child in zip(self.nodes, self.nodes[1:]):
            if child not in parent.children:
                raise ValueError(
                    f"{child.var} is not a child of {parent.var}: "
                    "component levels must form a chain")

    # -- structure --------------------------------------------------------

    @property
    def kernel(self) -> Kernel:
        return self.tree.kernel

    @property
    def band_vars(self) -> Tuple[str, ...]:
        """Iterator names of the component levels, outermost first."""
        return tuple(node.var for node in self.nodes)

    @property
    def depth(self) -> int:
        return len(self.nodes)

    @property
    def executions(self) -> int:
        """``first(L).I`` — times the whole component runs."""
        return self.nodes[0].I

    def outer_vars(self) -> Tuple[str, ...]:
        """Iterators of loops enclosing the component (e.g. LSTM's ``t``)."""
        kernel = self.kernel
        head = self.nodes[0].loop
        for stmt, loops in kernel.walk_stmts():
            vars_ = [loop.var for loop in loops]
            if head.var in vars_:
                return tuple(vars_[:vars_.index(head.var)])
        raise LookupError(f"component head {head.var} contains no statements")

    def stmts(self) -> List[Stmt]:
        """All statements executed by the component (incl. folded levels)."""
        return self.kernel.stmts_under(self.nodes[-1].loop)

    def arrays(self) -> Dict[str, Array]:
        """``L.A`` — every array accessed in the component."""
        out: Dict[str, Array] = {}
        for stmt in self.stmts():
            for array in stmt.arrays():
                out.setdefault(array.name, array)
        return out

    def accesses(self, array_name: str) -> List[Tuple[Stmt, Access]]:
        """(stmt, access) pairs touching *array_name*."""
        pairs = []
        for stmt in self.stmts():
            for access in stmt.accesses:
                if access.array.name == array_name:
                    pairs.append((stmt, access))
        return pairs

    def inner_vars(self) -> Tuple[str, ...]:
        """Iterators strictly below the band (folded/leaf body loops)."""
        last = self.nodes[-1].loop
        inner: List[str] = []

        def descend(loop: Loop):
            for child in loop.child_loops():
                inner.append(child.var)
                descend(child)

        descend(last)
        return tuple(inner)

    def full_inner_box(self) -> Dict[str, Tuple[int, int]]:
        """Full iterator bounds for the inner (non-band) loops."""
        box = {}
        last = self.nodes[-1].loop

        def descend(loop: Loop):
            for child in loop.child_loops():
                box[child.var] = child.loop_range.bounds
                descend(child)

        descend(last)
        return box

    @cached_property
    def geometry(self) -> TileGeometry:
        """The one :class:`~repro.prem.segments.TileGeometry` every
        consumer of this component shares; it lives as long as the
        component."""
        from ..prem.segments import TileGeometry
        return TileGeometry(self)

    def label(self) -> str:
        return "(" + ", ".join(self.band_vars) + ")"

    def __repr__(self) -> str:
        return f"TilableComponent{self.label()}"


def component_at(tree: LoopTree, vars_: Sequence[str]) -> TilableComponent:
    """Build a component from iterator names (test/report convenience)."""
    nodes = tuple(tree.node_by_var(v) for v in vars_)
    return TilableComponent(tree, nodes)
