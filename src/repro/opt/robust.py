"""Scenario-based robust search over the Algorithm-1 candidate space.

The nominal optimizers rank candidates by one number — the makespan at
the fitted §4.2 model and the measured platform parameters.  That number
is a point estimate: the model is a constrained least-squares fit and
the DMA/bus/API costs are measurements, so a candidate that wins by 1%
nominally can lose badly when the real parameters drift.  This module
re-ranks the same candidate space by a *risk objective* over K seeded
Monte-Carlo timing scenarios (:mod:`repro.faults.scenarios`):

``worst``
    the maximum makespan over the scenario set (minimax);
``cvar``
    CVaR-α — the mean of the worst ``ceil((1 - α)·K)`` scenario
    makespans, interpolating between ``mean`` (α = 0) and ``worst``
    (α → 1) without the minimax's all-or-nothing focus on one draw;
``mean``
    the plain scenario average.

The K×M scenario-candidate product is kept tractable by the same
branch-and-bound machinery as :class:`~repro.opt.pruned.PrunedOptimizer`,
made admissible for risk objectives through the *envelope* bound: a
closed-form lower bound computed at the componentwise most optimistic
parameters of the whole scenario set.  Bound at envelope ≤ bound at any
scenario ≤ makespan at that scenario, so it lower-bounds the *minimum*
scenario makespan — and therefore every coordinatewise-monotone risk
objective.  Candidates are screened best-bound-first against the nominal
winner's risk (the initial incumbent), survivors are scored scenario by
scenario through the parallel evaluation engine, and partially-scored
candidates are dropped as soon as their completed values plus the
envelope bound for the rest already lose to the incumbent.

Feasibility never varies across scenarios — perturbations touch timing
only, never cores/SPM/burst — so a candidate feasible at nominal
parameters is feasible everywhere and vice versa; only its makespan
moves.  Determinism: the scenario set is a pure function of
``(count, seed, spread)``, scenario makespans are accumulated in fixed
scenario order, risk sums use ``math.fsum`` over deterministically
sorted values, and every tie breaks on the flattened solution key — the
winner is bit-identical across re-runs and ``jobs`` settings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..faults.scenarios import (
    DEFAULT_SPREAD,
    PARAMETERS,
    TimingScenario,
    adverse_scenario,
    envelope_scenario,
    sample_scenarios,
)
from ..loopir.component import TilableComponent
from ..schedule.makespan import (
    DEFAULT_SEGMENT_CAP,
    Deadline,
    MakespanEvaluator,
)
from ..timing.execmodel import ExecModel
from ..timing.platform import Platform
from .bounds import BoundCalculator, flatten_key
from .cache import PersistentCache
from .component import ComponentOptResult
from .engine import EngineMetrics, EvaluationEngine
from .pruned import DEFAULT_PRUNED_MAX_POINTS, PrunedOptimizer
from .solution import Solution
from .walk import _DEADLINE_STRIDE, CandidateSpace, validate_shard

#: The supported risk objectives.
RISK_OBJECTIVES: Tuple[str, ...] = ("worst", "cvar", "mean")


def cvar_tail_count(count: int, alpha: float) -> int:
    """Scenarios in the CVaR-α tail: ``max(1, ceil((1 - α)·count))``."""
    return max(1, math.ceil((1.0 - alpha) * count))


def validate_risk(risk: str, alpha: float) -> None:
    """Reject an unknown *risk* objective or a CVaR level outside
    ``[0, 1)``."""
    if risk not in RISK_OBJECTIVES:
        raise ValueError(
            f"unknown risk objective {risk!r} (known: {RISK_OBJECTIVES})")
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")


def risk_value(values: Sequence[float], risk: str, alpha: float) -> float:
    """The risk objective over one candidate's scenario makespans.

    Coordinatewise monotone in *values* for every supported objective —
    the property the envelope bound's admissibility argument rests on.
    Sums go through ``math.fsum`` over deterministically ordered values,
    so the result is bit-stable across runs."""
    if not values:
        return math.inf
    if risk == "worst":
        return max(values)
    if risk == "mean":
        return math.fsum(values) / len(values)
    if risk == "cvar":
        tail = sorted(values, reverse=True)[:cvar_tail_count(
            len(values), alpha)]
        return math.fsum(tail) / len(tail)
    raise ValueError(
        f"unknown risk objective {risk!r} (known: {RISK_OBJECTIVES})")


@dataclass(frozen=True)
class SensitivityEntry:
    """Makespan of the winner under one parameter's adverse perturbation."""

    parameter: str
    makespan_ns: float
    delta_ns: float               # vs the winner's nominal makespan

    @property
    def relative(self) -> float:
        base = self.makespan_ns - self.delta_ns
        return self.delta_ns / base if base > 0 else 0.0


@dataclass(frozen=True)
class CandidateRisk:
    """One candidate's full robustness record."""

    solution: Solution
    nominal_ns: float
    scenario_ns: Tuple[float, ...]    # in scenario-index order
    risk_ns: float

    @property
    def worst_ns(self) -> float:
        return max(self.scenario_ns) if self.scenario_ns \
            else self.nominal_ns

    @property
    def mean_ns(self) -> float:
        if not self.scenario_ns:
            return self.nominal_ns
        return math.fsum(self.scenario_ns) / len(self.scenario_ns)


@dataclass
class RobustComponentResult(ComponentOptResult):
    """Algorithm-1 result enriched with the robust-search outcome.

    ``best`` is the robust winner's *nominal-parameter* makespan result
    (what codegen, the VM and tree composition consume); the scenario
    record of the winner and of the nominal incumbent live in
    :attr:`robust` and :attr:`nominal`.
    """

    risk: str = "cvar"
    alpha: float = 0.9
    spread: float = DEFAULT_SPREAD
    seed: int = 0
    scenario_count: int = 0
    finalists: int = 0            # candidates that entered scenario scoring
    scenario_probes: int = 0      # (candidate, scenario) makespans obtained
    robust: Optional[CandidateRisk] = None
    nominal: Optional[CandidateRisk] = None
    sensitivity: Tuple[SensitivityEntry, ...] = ()

    @property
    def regret_ns(self) -> float:
        """Risk the nominal winner would have carried over the robust one."""
        if self.robust is None or self.nominal is None:
            return 0.0
        return self.nominal.risk_ns - self.robust.risk_ns

    @property
    def switched(self) -> bool:
        """True when the robust winner differs from the nominal one."""
        return (self.robust is not None and self.nominal is not None
                and self.robust.solution.key()
                != self.nominal.solution.key())


class RobustOptimizer:
    """Risk-objective twin of :class:`~repro.opt.pruned.PrunedOptimizer`.

    Phase A finds the nominal winner (plain pruned search) and scores it
    under every scenario — the initial incumbent.  Phase B screens the
    whole candidate space with envelope-admissible bounds, best-bound
    first, pruning the sorted tail in one step exactly like the nominal
    search.  Phase C scores the survivors scenario-major through the
    evaluation engine, dropping candidates whose partial risk floor
    already loses.  ``scenarios == 0`` degrades to the nominal search:
    the returned winner is bit-identical to ``PrunedOptimizer``'s.
    """

    def __init__(self, component: TilableComponent, platform: Platform,
                 exec_model: ExecModel,
                 segment_cap: int = DEFAULT_SEGMENT_CAP,
                 scenarios: int = 32, seed: int = 0,
                 spread: float = DEFAULT_SPREAD,
                 risk: str = "cvar", alpha: float = 0.9,
                 deadline: Optional[Deadline] = None,
                 jobs: int = 1, cache: Optional[PersistentCache] = None,
                 vectorize: bool = True,
                 shard_of: Optional[Tuple[int, int]] = None):
        validate_risk(risk, alpha)
        self.component = component
        self.platform = platform
        self.exec_model = exec_model
        self.segment_cap = segment_cap
        self.risk = risk
        self.alpha = alpha
        self.seed = seed
        self.spread = spread
        self.jobs = jobs
        self.cache = cache
        self.vectorize = vectorize
        #: Restrict phases A and B to shard *i* of *n* of the sorted
        #: candidate list.  Unlike the nominal search, shards exchange
        #: no incumbents here — each shard robustifies its own slice,
        #: and the reducer takes the best published risk rank.
        self.shard_of = validate_shard(shard_of)
        self.scenarios: Tuple[TimingScenario, ...] = \
            sample_scenarios(scenarios, seed, spread) if scenarios else ()
        #: Phase A — the nominal search, shared guard and counters.
        self._nominal_search = PrunedOptimizer(
            component, platform, exec_model, segment_cap=segment_cap,
            deadline=deadline, jobs=jobs, cache=cache,
            vectorize=vectorize, shard_of=shard_of)
        self._scenario_evaluators: List[MakespanEvaluator] = []
        #: Phases B and C's counters: screening prunes plus one engine
        #: record per scenario evaluator.
        self._metrics = EngineMetrics()
        self._probes = 0

    @property
    def evaluator(self) -> MakespanEvaluator:
        """The nominal-parameter evaluator (phase A's)."""
        return self._nominal_search.evaluator

    # -- scenario plumbing -------------------------------------------------

    def _evaluator_for(self, scenario: TimingScenario) -> MakespanEvaluator:
        return MakespanEvaluator(
            self.component,
            scenario.apply_platform(self.platform),
            scenario.apply_exec_model(self.exec_model),
            self.segment_cap,
            cache=self.cache,
            scenario=scenario.digest(),
            deadline=self.evaluator.deadline,
        )

    def _scenario_values(self, solution: Solution) -> Tuple[float, ...]:
        """One candidate's makespan under every scenario, in order."""
        values = []
        for evaluator in self._scenario_evaluators:
            values.append(evaluator.evaluate(solution).makespan_ns)
            self._probes += 1
        return tuple(values)

    def _risk(self, values: Sequence[float]) -> float:
        return risk_value(values, self.risk, self.alpha)

    # -- search ------------------------------------------------------------

    def optimize(self, cores: Optional[int] = None
                 ) -> RobustComponentResult:
        cores = cores if cores is not None else self.platform.cores
        self._metrics = EngineMetrics()
        self._probes = 0
        self._scenario_evaluators = []
        nominal = self._nominal_search.optimize(cores)

        if not self.scenarios or nominal.best is None \
                or not nominal.best.feasible:
            # No scenarios (plain nominal semantics, bit-identical to the
            # pruned search) or no feasible candidate at all — timing
            # perturbations cannot create feasibility, so there is
            # nothing to robustify.
            return self._wrap(nominal, robust=None, nominal_risk=None,
                              sensitivity=())

        self._scenario_evaluators = [
            self._evaluator_for(s) for s in self.scenarios]

        # Initial incumbent: the nominal winner's risk.
        nominal_values = self._scenario_values(nominal.best.solution)
        nominal_risk = CandidateRisk(
            solution=nominal.best.solution,
            nominal_ns=nominal.best.makespan_ns,
            scenario_ns=nominal_values,
            risk_ns=self._risk(nominal_values),
        )
        incumbent_rank = (nominal_risk.risk_ns,
                          flatten_key(nominal.best.solution.key()))

        finalists = self._screen(cores, incumbent_rank)
        winner_key, winner_values = self._score(finalists, incumbent_rank)

        if winner_key is None:
            robust = nominal_risk
        else:
            solution = finalists[winner_key][1]
            robust = CandidateRisk(
                solution=solution,
                nominal_ns=self._nominal_search.evaluator
                    .evaluate(solution).makespan_ns,
                scenario_ns=winner_values,
                risk_ns=self._risk(winner_values),
            )
        sensitivity = self._sensitivity(robust)
        return self._wrap(nominal, robust=robust,
                          nominal_risk=nominal_risk,
                          sensitivity=sensitivity,
                          finalists=len(finalists))

    # -- phase B: envelope screening ---------------------------------------

    def _screen(self, cores: int, incumbent_rank: tuple
                ) -> Dict[Tuple[int, ...], Tuple[float, Solution]]:
        """Candidates no envelope-admissible bound could eliminate.

        Returns ``flat key -> (refined envelope bound, solution)`` in
        insertion order (sorted best-bound-first), including the nominal
        winner itself (its memoized scenario values make re-scoring it
        free).  This is a bound-only loop, not :func:`repro.opt.walk.
        walk`: envelope bounds must never be persisted as bound entries
        under the nominal context digest."""
        envelope = envelope_scenario(self.scenarios)
        bounds = BoundCalculator(
            self.component,
            envelope.apply_platform(self.platform),
            envelope.apply_exec_model(self.exec_model),
            self.segment_cap,
            modes=self.evaluator.planner.modes,
        )
        check = self.evaluator.check_deadline
        # Same round-robin slice as the nominal search: sorted, so the
        # tail prune below stays valid within the shard.
        space = CandidateSpace(
            self.component, bounds, cores, DEFAULT_PRUNED_MAX_POINTS,
            "robust", check, vectorize=self.vectorize, shard_of=self.shard_of)
        self._metrics.pruned += space.enum_pruned
        candidates = space.candidates

        finalists: Dict[Tuple[int, ...], Tuple[float, Solution]] = {}
        for pos, candidate in enumerate(candidates):
            bound, flat = candidate[0], candidate[1]
            if pos % _DEADLINE_STRIDE == 0:
                check()
            if (bound, flat) >= incumbent_rank:
                # Sorted tail: everything from here on is at or past the
                # incumbent's (risk, key) rank too.
                self._metrics.pruned += len(candidates) - pos
                break
            refined = space.refine(candidate)
            if math.isinf(refined) or (refined, flat) >= incumbent_rank:
                self._metrics.pruned += 1
                continue
            finalists[flat] = (refined, space.solution(candidate))
        return finalists

    # -- phase C: scenario-major scoring -----------------------------------

    def _score(self, finalists: Dict[Tuple[int, ...],
                                     Tuple[float, Solution]],
               incumbent_rank: tuple
               ) -> Tuple[Optional[Tuple[int, ...]],
                          Tuple[float, ...]]:
        """Score the finalists scenario by scenario; return the winner.

        After each scenario, a candidate whose *risk floor* — the risk
        of its completed values padded with its envelope bound for the
        missing ones (each true value is ≥ the bound, and the objective
        is coordinatewise monotone) — ranks at or past the incumbent is
        dropped before the next scenario is paid for."""
        count = len(self.scenarios)
        alive: List[Tuple[Tuple[int, ...], float, Solution]] = [
            (flat, bound, solution)
            for flat, (bound, solution) in finalists.items()]
        vectors: Dict[Tuple[int, ...], List[float]] = {
            flat: [] for flat, _, _ in alive}

        for index, evaluator in enumerate(self._scenario_evaluators):
            # Scenario-major: the whole surviving cohort is scored as
            # one engine call (one tensor program when vectorized)
            # through the scenario's own evaluator.  Every scenario
            # evaluator runs exactly one engine, after its only other
            # use (the nominal winner's values), so summing the engine
            # records counts each evaluator's work once.
            with EvaluationEngine(evaluator, jobs=self.jobs,
                                  vectorize=self.vectorize) as engine:
                results = engine.evaluate_many([
                    (solution.tile_sizes, solution.thread_groups)
                    for _, _, solution in alive])
                self._metrics += engine.metrics()
            self._probes += len(alive)
            survivors = []
            remaining = count - index - 1
            for (flat, bound, solution), result in zip(alive, results):
                values = vectors[flat]
                values.append(result.makespan_ns)
                floor = self._risk(values + [bound] * remaining)
                if (floor, flat) >= incumbent_rank:
                    self._metrics.pruned += 1
                    continue
                survivors.append((flat, bound, solution))
            alive = survivors

        best_key: Optional[Tuple[int, ...]] = None
        best_rank = incumbent_rank
        for flat, _, _ in alive:
            values = vectors[flat]
            rank = (self._risk(values), flat)
            if rank < best_rank:
                best_key, best_rank = flat, rank
        if best_key is None:
            return None, ()
        return best_key, tuple(vectors[best_key])

    # -- sensitivity ranking -----------------------------------------------

    def _sensitivity(self, winner: CandidateRisk
                     ) -> Tuple[SensitivityEntry, ...]:
        """One-at-a-time adverse perturbations of the winner, ranked by
        impact — which parameter's drift moves the makespan most."""
        entries = []
        for parameter in PARAMETERS:
            evaluator = self._evaluator_for(
                adverse_scenario(parameter, self.spread))
            makespan = evaluator.evaluate(winner.solution).makespan_ns
            self._probes += 1
            entries.append(SensitivityEntry(
                parameter=parameter,
                makespan_ns=makespan,
                delta_ns=makespan - winner.nominal_ns,
            ))
        entries.sort(key=lambda e: (-e.delta_ns, e.parameter))
        return tuple(entries)

    # -- assembly ----------------------------------------------------------

    def _wrap(self, nominal: ComponentOptResult,
              robust: Optional[CandidateRisk],
              nominal_risk: Optional[CandidateRisk],
              sensitivity: Tuple[SensitivityEntry, ...],
              finalists: int = 0) -> RobustComponentResult:
        best = nominal.best
        if robust is not None and nominal_risk is not None and \
                robust.solution.key() != nominal_risk.solution.key():
            # The robust winner differs: the result's ``best`` becomes
            # its nominal-parameter outcome so downstream consumers
            # (codegen, VM, tree composition) see consistent units.
            evaluator = self._nominal_search.evaluator
            best = evaluator.evaluate(robust.solution)
            if not best.from_cache and best.plan is None:
                best = evaluator.attach_plan(best)
        return RobustComponentResult(
            component=self.component,
            best=best,
            assignments_tried=nominal.assignments_tried,
            metrics=nominal.metrics + self._metrics,
            exec_model=self.exec_model,
            risk=self.risk,
            alpha=self.alpha,
            spread=self.spread,
            seed=self.seed,
            scenario_count=len(self.scenarios),
            finalists=finalists,
            scenario_probes=self._probes,
            robust=robust,
            nominal=nominal_risk,
            sensitivity=sensitivity,
        )
