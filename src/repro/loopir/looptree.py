"""The loop-tree application model of Section 3.3.

Each kernel loop becomes a :class:`LoopTreeNode` carrying the paper's
attributes: ``N`` (trip count), ``S`` (stride), ``begin``, ``I`` (number of
times the loop is executed), ``parallel`` and its children.  Construction
performs the top-to-bottom validity check of Section 3.3/5.2.1: when a
level fails the tiling-legality check, all sub-loop levels *including that
node* are folded into its parent, which becomes a leaf.

Legality criteria (see :mod:`repro.loopir.validity` for the rationale):

- *tilable(l)*: no dependence direction vector has a ``>`` component at
  ``l`` while being carried at a level within the perfect chain containing
  ``l`` (i.e. at or below the chain head).  Vectors carried strictly above
  the chain head are ordered by the enclosing sequential loops and impose
  nothing — e.g. the LSTM dependences carried by the time loop.
- *parallel(l)*: every direction vector not carried above the chain head
  has an ``=`` component at ``l`` (the paper's "all of them are 0" check).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..poly.dependence import Dependence, DependenceAnalyzer, StatementInfo
from .ast import Kernel, Loop
from .validity import (
    chain_heads,
    count_guarded_executions,
    level_parallel,
    level_tilable,
)


def statement_infos(kernel: Kernel) -> List[StatementInfo]:
    """The per-statement domain/schedule/access records the polyhedral
    dependence tester consumes, in textual order."""
    return [
        StatementInfo(
            name=stmt.name,
            domain=kernel.stmt_domain(stmt.name),
            schedule=kernel.stmt_schedule(stmt.name),
            accesses=stmt.accesses,
        )
        for stmt, _ in kernel.walk_stmts()
    ]


def analyze_dependences(kernel: Kernel) -> List[Dependence]:
    """The kernel's full ``Dep`` set (every ordered statement pair)."""
    return DependenceAnalyzer(statement_infos(kernel)).analyze()


@dataclass
class LoopTreeNode:
    """One loop level of the application model."""

    loop: Loop
    N: int
    S: int
    begin: int
    I: int
    parallel: bool
    tilable: bool
    children: List["LoopTreeNode"] = field(default_factory=list)
    folded: bool = False   # True when sub-levels were absorbed into this node

    @property
    def var(self) -> str:
        return self.loop.var

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        flags = []
        if self.parallel:
            flags.append("parallel")
        if self.folded:
            flags.append("folded")
        if not self.tilable:
            flags.append("untilable")
        tag = f" [{', '.join(flags)}]" if flags else ""
        return f"LoopTreeNode({self.var}, N={self.N}, I={self.I}{tag})"


class LoopTree:
    """The application model: loop forest + the kernel's dependences."""

    def __init__(self, kernel: Kernel, roots: Sequence[LoopTreeNode],
                 dependences: Sequence[Dependence]):
        self.kernel = kernel
        self.roots: Tuple[LoopTreeNode, ...] = tuple(roots)
        self.dependences: Tuple[Dependence, ...] = tuple(dependences)

    @classmethod
    def build(cls, kernel: Kernel,
              dependences: Sequence[Dependence] | None = None) -> "LoopTree":
        """Analyze dependences (unless given) and build the folded tree."""
        if dependences is None:
            dependences = analyze_dependences(kernel)

        heads = chain_heads(kernel)
        roots = [
            cls._build_node(kernel, root, (), dependences, heads)
            for root in kernel.roots
        ]
        return cls(kernel, roots, dependences)

    @classmethod
    def _build_node(cls, kernel: Kernel, loop: Loop,
                    ancestors: Tuple[Loop, ...],
                    dependences: Sequence[Dependence],
                    heads: Dict[str, str]) -> LoopTreeNode:
        executions = count_guarded_executions(loop, ancestors)
        node = LoopTreeNode(
            loop=loop,
            N=loop.n,
            S=loop.stride,
            begin=loop.begin,
            I=executions,
            parallel=level_parallel(loop.var, dependences, heads),
            tilable=level_tilable(loop.var, dependences, heads),
        )
        if not node.tilable:
            # This level fails the check: the caller will fold it.  As a
            # root it has no parent, so it becomes a non-tilable leaf.
            node.folded = bool(loop.child_loops())
            node.parallel = False
            return node

        for child in loop.child_loops():
            child_node = cls._build_node(
                kernel, child, (*ancestors, loop), dependences, heads)
            if not child_node.tilable:
                # Section 3.3: fold all sub-levels including the failing
                # child into this node, making it a leaf.
                node.children = []
                node.folded = True
                return node
            node.children.append(child_node)
        return node

    # -- queries used by the optimizer -----------------------------------

    def node_by_var(self, var: str) -> LoopTreeNode:
        for root in self.roots:
            for node in root.walk():
                if node.var == var:
                    return node
        raise KeyError(f"no loop-tree node for iterator {var!r}")

    def render(self) -> str:
        """Human-readable tree dump (mirrors Figure 3.2)."""
        lines: List[str] = []

        def emit(node: LoopTreeNode, indent: int):
            pad = "  " * indent
            par = "T" if node.parallel else "F"
            lines.append(
                f"{pad}{node.var}: N={node.N} I={node.I} parallel={par}"
                + (" (folded leaf)" if node.folded else ""))
            for child in node.children:
                emit(child, indent + 1)

        for root in self.roots:
            emit(root, 0)
        return "\n".join(lines)
