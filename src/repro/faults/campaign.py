"""Seeded fault campaigns: inject faults, count what the checker catches.

``run_campaign`` compiles one kernel, then replays its first scheduled
component under a series of seeded single-fault plans.  Timing faults
are replayed against the static pipeline schedule; functional faults
run on the PREM VM with a trace attached.  Each injection is scored:

- *affecting*: the fault actually changed behaviour — a typed VM error,
  output memory differing from the unfaulted run, or (for timing
  faults) an operation crossing a dependent operation's static start;
- *detected*: the invariant checker flagged at least one violation, or
  the VM raised a typed :class:`repro.errors.PremVmError`.

The robustness contract of the pipeline is ``affecting implies
detected`` — no injected fault may corrupt results silently.  The
campaign is fully deterministic for a given (kernel, preset, seed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis import Diagnostic
from ..compiler import PremCompiler
from ..errors import CompilationError, PremVmError
from ..kernels import make_kernel
from ..prem.macros import MacroBuilder
from ..prem.runtime import PremRuntime, VmTrace, init_arrays
from ..prem.segments import RO, RW, WO
from ..timing.platform import DEFAULT_PLATFORM, Platform
from .invariants import PremInvariantChecker
from .plan import (
    ALL_KINDS,
    DMA_JITTER,
    DMA_STALL,
    EXEC_OVERRUN,
    SPM_POISON,
    SWAP_DELAY,
    SWAP_DROP,
    SWAP_DUPLICATE,
    TIMING_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)


@dataclass
class FaultOutcome:
    """Score of one injected fault."""

    spec: FaultSpec
    affecting: bool
    detected: bool
    violations: List[Diagnostic] = field(default_factory=list)
    error: str = ""

    @property
    def missed(self) -> bool:
        return self.affecting and not self.detected


@dataclass
class CampaignResult:
    """Everything one seeded campaign produced."""

    kernel: str
    preset: str
    seed: int
    component: str
    outcomes: List[FaultOutcome]

    def by_kind(self) -> Dict[str, Tuple[int, int, int, int]]:
        """kind -> (injected, affecting, detected, missed)."""
        table: Dict[str, List[int]] = {}
        for outcome in self.outcomes:
            row = table.setdefault(outcome.spec.kind, [0, 0, 0, 0])
            row[0] += 1
            row[1] += outcome.affecting
            row[2] += outcome.detected
            row[3] += outcome.missed
        return {kind: tuple(row) for kind, row in table.items()}

    @property
    def injected(self) -> int:
        return len(self.outcomes)

    @property
    def detected(self) -> int:
        return sum(o.detected for o in self.outcomes)

    @property
    def all_affecting_detected(self) -> bool:
        return not any(o.missed for o in self.outcomes)

    def describe(self) -> str:
        lines = [
            f"fault campaign: kernel={self.kernel} preset={self.preset} "
            f"seed={self.seed} component={self.component}",
            f"{'kind':<16}{'injected':>9}{'affecting':>10}"
            f"{'detected':>9}{'missed':>7}",
        ]
        totals = [0, 0, 0, 0]
        for kind, row in sorted(self.by_kind().items()):
            lines.append(
                f"{kind:<16}{row[0]:>9}{row[1]:>10}{row[2]:>9}{row[3]:>7}")
            for i, value in enumerate(row):
                totals[i] += value
        lines.append(
            f"{'total':<16}{totals[0]:>9}{totals[1]:>10}"
            f"{totals[2]:>9}{totals[3]:>7}")
        verdict = "OK: every correctness-affecting fault was detected" \
            if self.all_affecting_detected else \
            "FAIL: some correctness-affecting faults went undetected"
        lines.append(verdict)
        return "\n".join(lines)


def run_campaign(kernel_name: str, preset: str = "MINI", seed: int = 7,
                 kinds: Sequence[str] = ALL_KINDS, per_kind: int = 3,
                 platform: Optional[Platform] = None,
                 strategy: str = "heuristic") -> CampaignResult:
    """Compile *kernel_name* and run a seeded fault campaign on it.

    A campaign that injects nothing proves nothing, so *per_kind* below
    1 or an empty *kinds* raises :class:`ValueError`."""
    if per_kind < 1:
        raise ValueError(f"per_kind must be at least 1, got {per_kind}")
    if not kinds:
        raise ValueError("kinds must name at least one fault kind")
    kernel = make_kernel(kernel_name, preset)
    compiler = PremCompiler(platform or DEFAULT_PLATFORM)
    result = compiler.compile(kernel, strategy=strategy)
    if not result.components:
        raise CompilationError(
            f"kernel {kernel_name!r} at preset {preset!r} compiled to no "
            f"PREM components; nothing to inject into")

    compiled = result.components[0]
    component, solution = compiled.component, compiled.solution
    choice = next(
        c for c in result.opt_result.choices
        if c.component is component)
    plan_cores = choice.result.best.plan.cores
    builder = MacroBuilder(component, solution)
    checker = PremInvariantChecker()
    outer = {var: 0 for var in component.outer_vars()}

    # The unfaulted run is the functional reference.
    reference = init_arrays(kernel, seed)
    PremRuntime(component, solution).run(reference, outer=outer)

    rng = random.Random(seed)
    specs = _generate_specs(rng, kinds, per_kind, plan_cores, builder,
                            solution)

    outcomes = []
    for spec in specs:
        injector = FaultInjector(FaultPlan.single(spec, seed=seed))
        if spec.kind in TIMING_KINDS:
            outcomes.append(_score_timing(
                checker, plan_cores, injector, spec))
        else:
            outcomes.append(_score_functional(
                kernel, component, solution, builder, checker,
                injector, spec, outer, reference, seed))
    return CampaignResult(
        kernel=kernel_name,
        preset=preset,
        seed=seed,
        component=component.label(),
        outcomes=outcomes,
    )


# ---------------------------------------------------------------------------
# spec generation


def _generate_specs(rng: random.Random, kinds: Sequence[str],
                    per_kind: int, plan_cores, builder: MacroBuilder,
                    solution) -> List[FaultSpec]:
    active = [core for core in plan_cores if core.n_segments > 0]
    busy_slots = [
        (core.core, slot + 1)
        for core in active
        for slot, length in enumerate(core.mem_slot_ns)
        if length > 0
    ]
    segments = [
        (core.core, segment)
        for core in active
        for segment in range(1, core.n_segments + 1)
    ]

    load_targets: List[Tuple[int, str, int, str]] = []
    unload_targets: List[Tuple[int, str, int, str]] = []
    poison_targets: List[Tuple[int, str, int]] = []
    for core in active:
        for name, schedule in sorted(
                builder.core_schedules(core.core).items()):
            mode = builder.modes[name]
            for event in schedule.events:
                load_targets.append((core.core, name, event.index, "load"))
                if mode in (RO, RW):
                    poison_targets.append((core.core, name, event.index))
                if mode in (WO, RW):
                    unload_targets.append(
                        (core.core, name, event.index, "unload"))

    specs: List[FaultSpec] = []
    for kind in kinds:
        for _ in range(per_kind):
            if kind == DMA_JITTER and busy_slots:
                core, slot = rng.choice(busy_slots)
                specs.append(FaultSpec(
                    kind, core=core, slot=slot,
                    magnitude=rng.uniform(2.0, 6.0)))
            elif kind == DMA_STALL and busy_slots:
                core, slot = rng.choice(busy_slots)
                specs.append(FaultSpec(
                    kind, core=core, slot=slot,
                    magnitude=rng.uniform(5e3, 5e4)))
            elif kind == EXEC_OVERRUN and segments:
                core, segment = rng.choice(segments)
                specs.append(FaultSpec(
                    kind, core=core, segment=segment,
                    magnitude=rng.uniform(1.5, 4.0)))
            elif kind == SWAP_DROP and (load_targets or unload_targets):
                pool = load_targets + unload_targets
                core, name, index, op = rng.choice(pool)
                specs.append(FaultSpec(
                    kind, core=core, array=name, index=index, op=op))
            elif kind == SWAP_DELAY and load_targets:
                core, name, index, op = rng.choice(load_targets)
                specs.append(FaultSpec(
                    kind, core=core, array=name, index=index, op=op,
                    magnitude=rng.choice((1, 2))))
            elif kind == SWAP_DUPLICATE and load_targets:
                core, name, index, op = rng.choice(load_targets)
                specs.append(FaultSpec(
                    kind, core=core, array=name, index=index, op=op,
                    magnitude=rng.choice((1, 2))))
            elif kind == SPM_POISON and poison_targets:
                core, name, index = rng.choice(poison_targets)
                specs.append(FaultSpec(
                    kind, core=core, array=name, index=index,
                    element=rng.randrange(4096)))
    return specs


# ---------------------------------------------------------------------------
# scoring


def _score_timing(checker: PremInvariantChecker, plan_cores,
                  injector: FaultInjector,
                  spec: FaultSpec) -> FaultOutcome:
    violations = checker.check_timing(plan_cores, injector)
    # For timing faults the static-schedule replay is both the ground
    # truth and the detector: a stretch that crosses no dependent
    # operation's start is absorbed by schedule slack and is benign.
    return FaultOutcome(
        spec=spec,
        affecting=bool(violations),
        detected=bool(violations),
        violations=violations,
    )


def _score_functional(kernel, component, solution,
                      builder: MacroBuilder,
                      checker: PremInvariantChecker,
                      injector: FaultInjector, spec: FaultSpec,
                      outer, reference, seed: int) -> FaultOutcome:
    arrays = init_arrays(kernel, seed)
    trace = VmTrace()
    error = ""
    try:
        PremRuntime(component, solution, injector=injector,
                    trace=trace).run(arrays, outer=outer)
    except PremVmError as exc:
        error = f"{type(exc).__name__}: {exc}"
    violations = checker.check_trace(component, solution, builder, trace)
    mismatch = any(
        not np.array_equal(arrays[name], reference[name], equal_nan=False)
        for name in sorted(reference))
    return FaultOutcome(
        spec=spec,
        affecting=bool(error) or mismatch,
        detected=bool(error) or bool(violations),
        violations=violations,
        error=error,
    )
