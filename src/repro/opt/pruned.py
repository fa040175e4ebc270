"""Bound-driven branch-and-bound search over the Algorithm-1 space.

Same candidate space, same winner as :class:`ExhaustiveOptimizer` — the
point is what is *not* paid for.  Every candidate first gets a cheap
closed-form admissible lower bound (``repro.opt.bounds``); the search
then walks candidates best-bound-first with an incumbent:

1. candidates whose quick bound is infinite (provably infeasible) are
   dropped during enumeration;
2. once the sorted walk reaches a candidate whose ``(bound, key)`` rank
   is at or past the incumbent's ``(makespan, key)`` rank, *every*
   remaining candidate is pruned in one step — the sort makes the tail
   monotone;
3. survivors are refined with the DMA-path bound and the exact SPM test
   (tier 2, memoized geometry shared with the planner) and pruned
   individually when the refined rank cannot beat the incumbent;
4. only what is left pays a fresh ``SegmentPlanner.plan``.

Because every bound is admissible (a true lower bound on the candidate's
makespan) and the prune comparisons reuse the exhaustive search's
``(makespan, solution key)`` tie-break rank, the winner is bit-identical
to the unpruned search — including the no-feasible-candidate case.  The
evaluation *count* is exactly what pruning reduces, so it is not part of
the parity contract.  It is still deterministic: the walk
(:func:`repro.opt.walk.walk`) advances the incumbent only at window
boundaries, so the evaluated/pruned split depends on the window schedule
alone — one candidate per window for the scalar serial walk, windows
doubling from 16 to 256 for every vectorized or ``jobs > 1`` walk — and
never on worker timing.

Pruned candidates are recorded in the persistent cache as bound-only
entries; re-encountering one on a warm run counts as a *bound hit*.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..loopir.component import TilableComponent
from ..schedule.makespan import (
    DEFAULT_SEGMENT_CAP,
    Deadline,
    MakespanEvaluator,
)
from ..timing.execmodel import ExecModel
from ..timing.platform import Platform
from .bounds import BoundCalculator
from .cache import PersistentCache
from .component import ComponentOptResult
from .engine import EvaluationEngine
from .walk import (
    BATCH_WINDOWS,
    SERIAL_WINDOWS,
    CandidateSpace,
    ScalarIncumbent,
    validate_shard,
    walk,
)

#: The pruned path affords a far larger space than the exhaustive
#: guard's 20k: most candidates cost one closed-form bound, not a plan.
DEFAULT_PRUNED_MAX_POINTS = 500_000


class PrunedOptimizer:
    """Branch-and-bound twin of :class:`ExhaustiveOptimizer`.

    Returns the identical winner while planning only the candidates no
    admissible bound could eliminate; ``result.pruned`` counts the
    evaluations avoided and ``result.bound_hits`` how many of those the
    persistent cache had already seen."""

    def __init__(self, component: TilableComponent, platform: Platform,
                 exec_model: ExecModel,
                 segment_cap: int = DEFAULT_SEGMENT_CAP,
                 max_points: int = DEFAULT_PRUNED_MAX_POINTS,
                 deadline: Optional[Deadline] = None,
                 jobs: int = 1, cache: Optional[PersistentCache] = None,
                 vectorize: bool = True,
                 shard_of: Optional[Tuple[int, int]] = None,
                 incumbent: Optional[Tuple[float, Tuple[int, ...]]] = None):
        self.component = component
        self.platform = platform
        self.exec_model = exec_model
        self.max_points = max_points
        self.jobs = jobs
        self.vectorize = vectorize
        #: Restrict the walk to shard *i* of *n*: every n-th candidate
        #: of the globally sorted list, starting at i.  The union over
        #: all shards is the whole space, and any true feasible
        #: incumbent may seed any shard (see ``incumbent``), so the
        #: minimum rank over the shard winners is the unsharded winner.
        self.shard_of = validate_shard(shard_of)
        #: Optional seed ``(makespan, flat key)`` incumbent rank — a
        #: *true feasible* rank published by another shard.  Seeding
        #: can only prune candidates that cannot beat that rank, so the
        #: shard's own winner may come back None; the seed's publisher
        #: already holds the corresponding full result.
        self.incumbent = (float(incumbent[0]), tuple(incumbent[1])) \
            if incumbent is not None else None
        self.evaluator = MakespanEvaluator(
            component, platform, exec_model, segment_cap, cache=cache,
            deadline=deadline)
        self.bounds = BoundCalculator(
            component, platform, exec_model, segment_cap,
            modes=self.evaluator.planner.modes)

    def optimize(self, cores: Optional[int] = None) -> ComponentOptResult:
        cores = cores if cores is not None else self.platform.cores
        space = CandidateSpace(
            self.component, self.bounds, cores, self.max_points, "pruned",
            self.evaluator.check_deadline, vectorize=self.vectorize,
            shard_of=self.shard_of)
        # The per-candidate walk is the B1 reference arm; every batched
        # or pooled walk advances the incumbent per doubling window.
        windows = BATCH_WINDOWS if self.vectorize or self.jobs > 1 \
            else SERIAL_WINDOWS
        incumbent = ScalarIncumbent(self.incumbent)
        with EvaluationEngine(self.evaluator, jobs=self.jobs,
                              vectorize=self.vectorize) as engine:
            walk(space, engine, incumbent, windows)
            best = engine.finalize(incumbent.best)
            metrics = engine.metrics()
        return ComponentOptResult(
            component=self.component,
            best=best,
            assignments_tried=len(space.assignments),
            metrics=metrics,
            exec_model=self.exec_model,
        )
