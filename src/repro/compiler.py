"""End-to-end PREM compiler pipeline (Figure 5.1).

``PremCompiler`` chains the whole toolflow the paper's block diagram
describes: loop/data analysis (dependences, loop tree), component
extraction and optimization (Algorithms 1 and 2), and code generation
with PREM API insertion.  The result object exposes the chosen solutions,
the generated PREM-C per component, the predicted makespan, and hooks to
execute the transformed program on the functional PREM VM.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    CompilationError,
    InfeasibleScheduleError,
    OptimizerError,
    OptimizerTimeout,
    ReproError,
)
from .loopir.ast import Kernel
from .loopir.component import TilableComponent
from .loopir.fission import FissionResult, fission_kernel
from .loopir.looptree import LoopTree
from .opt.cache import PersistentCache
from .opt.component import ComponentOptimizer
from .opt.exhaustive import ExhaustiveOptimizer
from .opt.greedy import GreedyOptimizer
from .opt.ideal import ideal_makespan_ns
from .opt.pareto import ParetoOptimizer
from .opt.pruned import PrunedOptimizer
from .opt.robust import RobustOptimizer
from .opt.solution import Solution
from .opt.tree import TreeOptimizer, TreeOptResult
from .prem.codegen import CodeGenerator
from .prem.runtime import SequentialInterpreter, init_arrays, run_kernel_prem
from .prem.segments import ComponentPlan, SegmentPlanner
from .schedule.makespan import DEFAULT_SEGMENT_CAP, Deadline
from .sim.machine import MachineModel
from .timing.platform import DEFAULT_PLATFORM, Platform

#: Degradation order of :meth:`PremCompiler.compile_fallback` — the best
#: optimizer first, the unconditionally feasible strategy last.
FALLBACK_CHAIN: Tuple[str, ...] = ("pruned", "greedy", "sequential")


#: Strategy -> (component optimizer, the keywords it takes beyond the
#: shared ones, shard exchange).  Every optimizer takes the component,
#: platform and execution model plus ``deadline`` (one
#: :class:`~repro.schedule.makespan.Deadline` named after the strategy,
#: or None) and ``cache``; the listed extras come from the compiler
#: (``jobs``, ``seed``) or from the :meth:`PremCompiler.compile` call
#: (``shard_of`` and the robust knobs).  The exchange is None for
#: strategies without an enumerated candidate space (they cannot
#: shard), "winner" for the pruned search (seeded with the best rank a
#: sibling shard published, and publishing its own), and "progress"
#: where a shard winner is not comparable across shards: a dominance
#: archive has no scalar incumbent, and risk winners are not ranked by
#: the makespan log.  ``sequential`` runs no optimizer at all.
STRATEGIES = {
    "heuristic": (ComponentOptimizer, ("jobs", "seed"), None),
    "greedy": (GreedyOptimizer, (), None),
    "exhaustive": (ExhaustiveOptimizer, ("jobs",), None),
    "pruned": (PrunedOptimizer, ("jobs", "shard_of"), "winner"),
    "pareto": (ParetoOptimizer, ("jobs", "shard_of"), "progress"),
    "robust": (RobustOptimizer, ("jobs", "shard_of", "seed", "scenarios",
                                 "risk", "alpha", "spread"), "progress"),
    "sequential": (None, (), None),
}


def validate_budget(budget_s: Optional[float]) -> Optional[float]:
    """*budget_s* unchanged when it is None (no deadline) or a finite
    number of seconds >= 0; :class:`ValueError` otherwise."""
    if budget_s is not None and not 0 <= budget_s < math.inf:
        raise ValueError(
            f"budget must be a finite number of seconds >= 0, "
            f"got {budget_s}")
    return budget_s


def validate_jobs(jobs: int) -> int:
    """*jobs* when it is at least 1 (serial); ValueError otherwise."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    return jobs


@dataclass
class CompiledComponent:
    """One scheduled component of the compiled program."""

    component: TilableComponent
    solution: Solution
    makespan_ns: float
    executions: int

    @property
    def total_makespan_ns(self) -> float:
        return self.makespan_ns * self.executions


@dataclass
class StageAttempt:
    """One stage of the fallback chain and how it ended."""

    strategy: str
    status: str               # "ok" | "timeout" | "infeasible" | "error"
    elapsed_s: float
    detail: str = ""

    def describe(self) -> str:
        text = f"{self.strategy}: {self.status} ({self.elapsed_s:.3f} s)"
        return f"{text} — {self.detail}" if self.detail else text


@dataclass
class CompilationResult:
    """Everything the compiler produces for one kernel/platform pair."""

    kernel: Kernel
    tree: LoopTree
    platform: Platform
    components: List[CompiledComponent]
    makespan_ns: float
    ideal_ns: float
    opt_result: TreeOptResult
    strategy: str = "heuristic"
    attempts: List[StageAttempt] = field(default_factory=list)
    #: Set when the dependence-verified fission pre-pass ran; its
    #: ``original`` field keeps the unfissioned kernel (``self.kernel``
    #: is the distributed one the components were extracted from).
    fission: Optional[FissionResult] = None

    @property
    def degraded(self) -> bool:
        """True when at least one better strategy failed before this one."""
        return any(a.status != "ok" for a in self.attempts)

    @property
    def feasible(self) -> bool:
        return math.isfinite(self.makespan_ns)

    @property
    def normalized_makespan(self) -> float:
        """Makespan over the ideal single-core bound (Figure 6.1's y axis)."""
        return self.makespan_ns / self.ideal_ns

    def generate_c(self) -> Dict[str, str]:
        """PREM-C source per component (keyed by component label)."""
        out = {}
        for compiled in self.components:
            generator = CodeGenerator(compiled.component, compiled.solution)
            out[compiled.component.label()] = generator.generate()
        return out

    def component_map(self) -> Dict[str, Tuple[TilableComponent, Solution]]:
        """Head iterator -> (component, solution), for the PREM VM.

        The PREM VM dispatches components by head iterator name, so two
        components sharing one (both headed by ``i``, say) cannot be
        represented — building the map would silently drop the first.
        That is a hard error, not a quiet wrong answer."""
        out: Dict[str, Tuple[TilableComponent, Solution]] = {}
        for compiled in self.components:
            head = compiled.component.nodes[0].var
            if head in out:
                raise CompilationError(
                    f"components {out[head][0].label()} and "
                    f"{compiled.component.label()} share the head "
                    f"iterator {head!r}; the PREM VM keys components by "
                    f"head iterator and would drop one of them — rename "
                    f"one of the loops")
            out[head] = (compiled.component, compiled.solution)
        return out

    def plan_of(self, compiled: CompiledComponent) -> ComponentPlan:
        """The full segment plan of one compiled component.

        Persistent-cache winners are deliberately plan-less (a warm run
        performs zero fresh plans), so consumers that need the actual
        segment schedule — the gantt chart, the report's per-segment
        table — re-plan the single chosen solution here instead of
        bypassing the cache for the whole compilation.  The fitted
        execution model travels with the optimizer result, so the
        re-plan reproduces the optimizer's plan exactly."""
        for choice in self.opt_result.choices:
            if choice.component is not compiled.component:
                continue
            best = choice.result.best
            if best is not None and best.plan is not None:
                return best.plan
            exec_model = choice.result.exec_model
            if exec_model is not None:
                planner = SegmentPlanner(
                    compiled.component, self.platform, exec_model)
                return planner.plan(compiled.solution, DEFAULT_SEGMENT_CAP)
        raise CompilationError(
            f"no optimizer record for component "
            f"{compiled.component.label()}; cannot reconstruct its plan")

    def run_functional(self, arrays: Optional[Dict[str, np.ndarray]] = None,
                       seed: int = 7) -> Dict[str, np.ndarray]:
        """Execute the transformed program on the PREM VM; returns memory."""
        if arrays is None:
            arrays = init_arrays(self.kernel, seed)
        run_kernel_prem(self.kernel, self.component_map(), arrays)
        return arrays

    def run_reference(self, arrays: Optional[Dict[str, np.ndarray]] = None,
                      seed: int = 7) -> Dict[str, np.ndarray]:
        """Execute the original program sequentially; returns memory."""
        if arrays is None:
            arrays = init_arrays(self.kernel, seed)
        SequentialInterpreter().run(self.kernel, arrays)
        return arrays

    def verify_static(self, passes: Optional[Sequence[str]] = None):
        """Run the static PREM-compliance verifier over every component.

        Returns the :class:`repro.analysis.AnalysisReport`; no VM is
        involved.  Imported lazily so the analysis subsystem stays
        optional for callers that only compile.
        """
        from .analysis import StaticVerifier
        return StaticVerifier(self.platform).verify_compilation(
            self, passes=passes)


class PremCompiler:
    """The full toolchain: analysis, optimization, code generation."""

    def __init__(self, platform: Platform = DEFAULT_PLATFORM,
                 seed: int = 0, jobs: int = 1,
                 cache: Optional[PersistentCache] = None):
        self.platform = platform
        self.machine = MachineModel()
        self.seed = seed
        #: Worker-pool width for candidate evaluation (1 = serial) and
        #: the optional persistent cross-run makespan cache; both are
        #: threaded through every optimization strategy.
        self.jobs = validate_jobs(jobs)
        self.cache = cache

    def compile(self, kernel: Kernel, cores: Optional[int] = None,
                strategy: str = "heuristic",
                tree: Optional[LoopTree] = None,
                budget_s: Optional[float] = None,
                scenarios: int = 32,
                risk: str = "cvar",
                alpha: float = 0.9,
                spread: float = 0.2,
                shards: Optional[Tuple[int, int]] = None,
                fission: str = "off"
                ) -> CompilationResult:
        """Analyze, optimize and package one kernel.

        *strategy* names a :data:`STRATEGIES` entry: ``heuristic``
        (Algorithm 1), ``greedy`` (the Section 6.2 baseline),
        ``exhaustive`` (full candidate scan, guarded by the optimizer's
        ``max_points``), ``pruned`` (the same scan driven by admissible
        lower bounds — identical winner, far fewer plans, guarded by a
        much larger space limit), ``robust`` (the pruned scan re-ranked
        by *risk* — ``worst``/``cvar``/``mean`` — over *scenarios*
        seeded Monte-Carlo timing perturbations of half-width *spread*;
        ``scenarios=0`` degrades to the nominal pruned winner),
        ``pareto`` (the pruned scan kept *whole*: every component's
        exact non-dominated front over makespan / SPM bytes / DMA
        bytes / cores — ``choice.result.front`` — with the chain
        assembled from each front's makespan-optimal member, so the
        compiled schedule matches ``pruned``), or ``sequential`` (no
        PREM transformation at all — the whole kernel on one core).
        The compiler's ``seed`` drives the heuristic's random starts
        and the robust scenario sampling; its ``jobs`` and ``cache``
        reach every strategy, and parallel runs are guaranteed to pick
        the same solutions as serial ones.

        *cores* overrides the platform's core count for the search
        (``None``: the platform's); a count below 1 raises
        :class:`ValueError`.

        *budget_s* is the search's wall-clock budget in seconds
        (``None``: unlimited); a search still running when it expires
        raises :class:`repro.errors.OptimizerTimeout` naming *strategy*,
        the cooperative per-stage timeout of :meth:`compile_fallback`.
        The compiler builds one :class:`~repro.schedule.makespan.
        Deadline` for the whole search; it stays armed inside worker
        processes.  A negative or non-finite budget raises
        :class:`ValueError`.

        *shards* — ``(index, count)`` — restricts every component's
        candidate walk to shard *index* of *count* (zero-based) for
        distributed compilation: each worker process compiles one
        shard against a *shared* persistent cache directory, and a
        final unsharded run over the warm cache (``shard-reduce``)
        recovers the bit-identical single-host winner with zero fresh
        plans.  Requires an enumerated-space strategy (``pruned``,
        ``robust`` or ``pareto``); with a cache attached, pruned-shard
        workers additionally exchange incumbent snapshots through the
        cache directory's coordination log.  A shard-restricted result
        may be infeasible on its own — that is expected, the reduce
        step supplies the winner.

        *fission* — ``"off"`` (default) compiles the kernel as given;
        ``"auto"`` first runs the dependence-verified loop-fission
        pre-pass (:func:`repro.loopir.fission.fission_kernel`),
        compiling the distributed kernel instead.  The result's
        :attr:`CompilationResult.fission` records the transform and
        keeps the original kernel for reference runs.  ``"auto"`` is
        incompatible with an explicitly supplied *tree* (the pre-pass
        changes the kernel the tree must be built from).
        """
        if cores is not None and cores < 1:
            raise ValueError(f"cores must be positive, got {cores}")
        validate_budget(budget_s)
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r} "
                             f"(known: {', '.join(STRATEGIES)})")
        search, extras, exchange = STRATEGIES[strategy]
        if shards is not None and exchange is None:
            raise ValueError(
                f"strategy {strategy!r} does not support sharding; "
                f"--shard needs an enumerated candidate space "
                f"(pruned, robust, or pareto)")
        kernel, tree, fission_result = self._front_end(kernel, tree, fission)
        if search is None:
            return self._compile_sequential(kernel, tree, fission_result)
        offered = dict(jobs=self.jobs, seed=self.seed, shard_of=shards,
                       scenarios=scenarios, risk=risk, alpha=alpha,
                       spread=spread)
        deadline = None if budget_s is None else Deadline(
            strategy, budget_s, time.perf_counter() + budget_s)
        keywords = dict(cache=self.cache, deadline=deadline,
                        **{name: offered[name] for name in extras})
        result = TreeOptimizer(
            tree, machine=self.machine, deadline=deadline).optimize(
            self.platform, cores=cores, optimize_fn=functools.partial(
                self._optimize_component, strategy, cores, keywords))

        components = []
        for choice in result.choices:
            best = choice.result.best
            if best is None:
                continue
            components.append(CompiledComponent(
                component=choice.component,
                solution=best.solution,
                makespan_ns=best.makespan_ns,
                executions=choice.component.executions,
            ))
        return CompilationResult(
            kernel=kernel,
            tree=tree,
            platform=self.platform,
            components=components,
            makespan_ns=result.makespan_ns,
            ideal_ns=ideal_makespan_ns(kernel, self.platform, self.machine),
            opt_result=result,
            strategy=strategy,
            fission=fission_result,
        )

    def compile_fallback(self, kernel: Kernel, cores: Optional[int] = None,
                         stage_budget_s: Optional[float] = 10.0,
                         fission: str = "off"
                         ) -> CompilationResult:
        """Compile with graceful degradation.

        Stages are tried in order; a stage that times out (wall-clock
        budget *stage_budget_s*), proves infeasible on this platform, or
        raises any :class:`repro.errors.ReproError` is recorded as a
        :class:`StageAttempt` and the next stage runs.  ``sequential``
        never fails, so with the default chain this method never raises
        for a well-formed kernel; the attempt log lands in
        :attr:`CompilationResult.attempts`.  Every stage shares the
        compiler's ``jobs`` and ``cache``; a shared cache lets a later
        stage reuse makespans an earlier, timed-out stage already paid
        for.  *fission* as in :meth:`compile`: with ``"auto"`` the
        pre-pass runs once up front and every stage compiles the
        distributed kernel.  *stage_budget_s* is checked like
        :meth:`compile`'s *budget_s*, before any stage runs.
        """
        validate_budget(stage_budget_s)
        kernel, tree, fission_result = self._front_end(kernel, None, fission)
        attempts: List[StageAttempt] = []
        for strategy in FALLBACK_CHAIN:
            started = time.perf_counter()
            try:
                result = self.compile(
                    kernel, cores=cores, strategy=strategy, tree=tree,
                    budget_s=stage_budget_s)
                if not result.feasible:
                    raise InfeasibleScheduleError(
                        f"strategy {strategy!r} found no feasible "
                        f"schedule on this platform")
            except ReproError as error:
                status = "timeout" if isinstance(error, OptimizerTimeout) \
                    else ("infeasible"
                          if isinstance(error, (InfeasibleScheduleError,
                                                OptimizerError))
                          else "error")
                attempts.append(StageAttempt(
                    strategy, status,
                    time.perf_counter() - started, str(error)))
                continue
            attempts.append(StageAttempt(
                strategy, "ok", time.perf_counter() - started))
            result.attempts = attempts
            result.fission = fission_result
            return result
        raise CompilationError(
            f"all strategies failed for kernel {kernel.name}: "
            + "; ".join(a.describe() for a in attempts))

    # -- stage builders ---------------------------------------------------

    def _compile_sequential(
            self, kernel: Kernel, tree: LoopTree,
            fission_result: Optional[FissionResult] = None
    ) -> CompilationResult:
        """No-PREM fallback: the untransformed kernel on one core."""
        makespan = self.machine.kernel_cost(kernel) * \
            self.platform.ns_per_cycle
        return CompilationResult(
            kernel=kernel,
            tree=tree,
            platform=self.platform,
            components=[],
            makespan_ns=makespan,
            ideal_ns=ideal_makespan_ns(kernel, self.platform, self.machine),
            opt_result=TreeOptResult(tree, makespan, choices=[]),
            strategy="sequential",
            fission=fission_result,
        )

    def _front_end(self, kernel: Kernel, tree: Optional[LoopTree],
                   fission: str
                   ) -> Tuple[Kernel, LoopTree, Optional[FissionResult]]:
        """The optional fission pre-pass, then the loop tree.

        The dependence analysis runs once, inside fission, unless fission
        split the kernel: a split kernel is analysed again."""
        if fission not in ("off", "auto"):
            raise ValueError(
                f"unknown fission mode {fission!r}; use 'off' or 'auto'")
        fission_result: Optional[FissionResult] = None
        if fission == "auto":
            if tree is not None:
                raise ValueError(
                    "fission='auto' transforms the kernel and rebuilds "
                    "the loop tree; an explicit tree cannot be combined "
                    "with it")
            fission_result = fission_kernel(kernel)
            kernel = fission_result.kernel
            if not fission_result.changed:
                # The kernel fission analysed is the kernel to build.
                tree = LoopTree.build(kernel, fission_result.dependences)
        return kernel, tree or LoopTree.build(kernel), fission_result

    def _optimize_component(self, strategy: str, cores: Optional[int],
                            keywords: Dict[str, object],
                            component: TilableComponent, exec_model):
        """Run *strategy*'s search on one component; the per-component
        callback of :meth:`TreeOptimizer.optimize`.

        With a shard restriction and a shared cache, the component's
        search also talks to its sibling shards through the cache
        directory's coordination log; a shard run without a cache is a
        plain restricted search with nobody to talk to."""
        search_cls, _, exchange_kind = STRATEGIES[strategy]
        search = search_cls(component, self.platform, exec_model, **keywords)
        shards = keywords.get("shard_of")
        exchange = None
        if shards is not None and self.cache is not None and \
                search.evaluator.context_hash is not None:
            from .opt.shard import StaticShardExchange
            exchange = StaticShardExchange(
                self.cache.directory, search.evaluator.context_hash, shards)
            if exchange_kind == "winner":
                # Seed with the best rank any sibling shard already
                # published; can only increase pruning.
                search.incumbent = exchange.seed()
        result = search.optimize(cores)
        if exchange is not None:
            exchange.publish(component, result,
                             winner=exchange_kind == "winner")
        return result
