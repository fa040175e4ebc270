"""Algorithm 2 — decompose the loop tree and compute the kernel makespan.

``extract_component`` walks the loop tree depth first, growing a perfectly
nested chain.  At a leaf the chain is optimized as one tilable component
(Algorithm 1) and its makespan is multiplied by ``first(L).I``.  At a node
with several children (or with statements mixed alongside a child loop)
the algorithm takes the better of two alternatives: tile the chain ending
here, treating everything below as the tile body, or recurse into each
child and sum their makespans.

Execution models are fitted once per chain (Section 4.2's profiling step)
and cached, so a bus-speed or SPM sweep re-optimizes without re-profiling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..loopir.component import TilableComponent
from ..loopir.looptree import LoopTree, LoopTreeNode
from ..loopir.validity import is_chain_extendable
from ..schedule.makespan import Deadline
from ..sim.machine import MachineModel
from ..sim.profiler import fit_component_model
from ..timing.execmodel import ExecModel
from ..timing.platform import Platform
from .bounds import chain_lower_bound
from .component import ComponentOptResult, ComponentOptimizer
from .engine import EngineMetrics, counter_view


@dataclass
class ComponentChoice:
    """One component the final plan actually schedules."""

    result: ComponentOptResult

    @property
    def component(self) -> TilableComponent:
        return self.result.component

    @property
    def total_makespan_ns(self) -> float:
        return self.result.total_makespan_ns


@dataclass
class TreeOptResult:
    """Outcome of Algorithm 2 on a whole kernel."""

    tree: LoopTree
    makespan_ns: float
    choices: List[ComponentChoice]
    #: Counters summed over *every* component search Algorithm 2 ran,
    #: including parent chains it optimized and then rejected.
    metrics: EngineMetrics = field(default_factory=EngineMetrics)
    chains_pruned: int = 0        # parent chains never optimized at all

    evaluations = counter_view("evaluations")
    cache_hits = counter_view("cache_hits")
    pruned = counter_view("pruned")
    bound_hits = counter_view("bound_hits")

    @property
    def feasible(self) -> bool:
        return math.isfinite(self.makespan_ns)

    @property
    def cache_hit_rate(self) -> float:
        """Persistent-cache hits over plans looked up (fresh or cached);
        in-process memo hits are no lookup."""
        lookups = self.evaluations + self.cache_hits
        return self.cache_hits / lookups if lookups else 0.0

    def describe(self) -> str:
        lines = [f"kernel {self.tree.kernel.name}: "
                 f"makespan {self.makespan_ns:,.0f} ns"]
        for choice in self.choices:
            result = choice.result
            solution = result.best.solution if result.best else None
            lines.append(
                f"  component {choice.component.label()} x "
                f"{choice.component.executions}: "
                f"{result.total_makespan_ns:,.0f} ns  "
                + (solution.describe() if solution else "(infeasible)"))
        return "\n".join(lines)


OptimizeFn = Callable[[TilableComponent, ExecModel], ComponentOptResult]


class TreeOptimizer:
    """Runs Algorithm 2; pluggable per-component optimizer (heuristic or
    greedy) and cached execution-model fits."""

    def __init__(self, tree: LoopTree, machine: MachineModel | None = None,
                 deadline: Optional[Deadline] = None):
        self.tree = tree
        self.machine = machine or MachineModel()
        self.deadline = deadline
        self._models: Dict[Tuple[str, ...], ExecModel] = {}
        self._platform: Optional[Platform] = None
        self._cores = 0
        self._chains_pruned = 0
        self._metrics = EngineMetrics()

    def exec_model_for(self, component: TilableComponent) -> ExecModel:
        key = component.band_vars
        model = self._models.get(key)
        if model is None:
            # A fit can cost a second (the first one imports scipy), so
            # the search's deadline is checked before each one.
            if self.deadline is not None:
                self.deadline.check()
            model = fit_component_model(component, self.machine)
            self._models[key] = model
        return model

    # -- Algorithm 2 ---------------------------------------------------------

    def optimize(self, platform: Platform,
                 cores: Optional[int] = None,
                 optimize_fn: OptimizeFn | None = None) -> TreeOptResult:
        """Run Algorithm 2; *optimize_fn* defaults to the serial,
        uncached heuristic (Algorithm 1) on every component."""
        cores = cores if cores is not None else platform.cores
        self._platform = platform
        self._cores = cores
        self._chains_pruned = 0
        self._metrics = EngineMetrics()
        if optimize_fn is None:
            def optimize_fn(component, exec_model):
                return ComponentOptimizer(
                    component, platform, exec_model).optimize(cores)

        total = 0.0
        choices: List[ComponentChoice] = []
        for root in self.tree.roots:
            makespan, chosen = self._extract(root, [], optimize_fn)
            total += makespan
            choices.extend(chosen)
        return TreeOptResult(
            tree=self.tree,
            makespan_ns=total,
            choices=choices,
            metrics=self._metrics,
            chains_pruned=self._chains_pruned,
        )

    def _extract(self, node: LoopTreeNode, chain: List[LoopTreeNode],
                 optimize_fn: OptimizeFn
                 ) -> Tuple[float, List[ComponentChoice]]:
        chain = [*chain, node]

        if not node.children:
            makespan, choice = self._optimize_chain(chain, optimize_fn)
            return makespan, [choice]

        extendable = is_chain_extendable(node.loop) and \
            len(node.children) == 1
        if extendable:
            return self._extract(node.children[0], chain, optimize_fn)

        # Children first: their makespan gives an incumbent the parent
        # chain must beat, so a closed-form floor on the chain can skip
        # Algorithm 1 on the parent entirely.
        children_makespan = 0.0
        children_choices: List[ComponentChoice] = []
        for child in node.children:
            child_makespan, chosen = self._extract(child, [], optimize_fn)
            children_makespan += child_makespan
            children_choices.extend(chosen)
        children_makespan += self._stray_stmt_cost(node)

        component = TilableComponent(self.tree, tuple(chain))
        exec_model = self.exec_model_for(component)
        floor = chain_lower_bound(
            component, self._platform, exec_model,
            self._cores) * component.executions
        if floor > children_makespan:
            # No candidate of the chain can reach children_makespan, and
            # the tie rule prefers the parent only on *equality* — which
            # the strict comparison excludes — so the decision matches
            # the unpruned walk exactly.
            self._chains_pruned += 1
            return children_makespan, children_choices

        result = self._search(component, exec_model, optimize_fn)
        parent_makespan = result.total_makespan_ns
        parent_choice = ComponentChoice(result)

        if parent_makespan <= children_makespan:
            return parent_makespan, [parent_choice]
        return children_makespan, children_choices

    def _optimize_chain(self, chain: List[LoopTreeNode],
                        optimize_fn: OptimizeFn
                        ) -> Tuple[float, ComponentChoice]:
        component = TilableComponent(self.tree, tuple(chain))
        result = self._search(
            component, self.exec_model_for(component), optimize_fn)
        return result.total_makespan_ns, ComponentChoice(result)

    def _search(self, component: TilableComponent, exec_model: ExecModel,
                optimize_fn: OptimizeFn) -> ComponentOptResult:
        """One component search, its counters added to the tree's."""
        result = optimize_fn(component, exec_model)
        self._metrics += result.metrics
        return result

    def _stray_stmt_cost(self, node: LoopTreeNode) -> float:
        """Sequential cost of statements directly in a branch node's body.

        The benchmark corpus has none; when present they run untiled on one
        core and their machine-model cost is added to the children option.
        """
        total = 0.0
        for child in node.loop.body:
            if hasattr(child, "accesses"):    # a Stmt
                cost = self.machine.costs.stmt_dispatch
                cost += child.flops * self.machine.costs.flop
                cost += len(child.reads()) * self.machine.costs.load
                cost += len(child.writes()) * self.machine.costs.store
                total += cost * max(1, node.I) * node.N
        return total
