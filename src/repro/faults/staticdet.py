"""Static fault-detection campaigns: the analyzer vs. seeded swap faults.

The dynamic campaign (:mod:`repro.faults.campaign`) injects swap faults
into the PREM VM and checks the trace/timing invariants catch them.
This module closes the loop for the *static* verifier: the same fault
kinds — ``swap-drop``, ``swap-delay``, ``swap-duplicate`` — are applied
to the :class:`~repro.analysis.ArraySwapModel` mirrors of a compiled
kernel's swap plans (no VM involved), the semantic analysis passes are
re-run, and detection is scored over
:data:`~repro.analysis.RACE_HAZARD_CODES` only.  Plan-consistency
cross-checks (PREM008/PREM009) are deliberately *excluded* from
scoring: they compare the model against the untouched plan and would
flag any mutation trivially.

Ground truth comes from the slot convention, per corrupted transfer:

- a **drop** always breaks the plan (an uncovered read/write or a lost
  write-back);
- a **delay** of a load by ``k`` slots is harmful iff it lands past the
  event's first consumer segment (``slot + k > c_x``) — earlier slots
  are absorbed by the double buffer;
- a **duplicate** always violates the static PREM contract (a second
  DMA touches a buffer mid-stream), though a benign-looking one may
  only surface as the PREM206 duplicate-transfer warning.

A sound verifier therefore detects every harmful case *and* stays
silent on benign delays; :class:`StaticCampaignResult` tracks both.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..analysis import (
    LOAD,
    RACE_HAZARD_CODES,
    SEMANTIC_PASSES,
    UNLOAD,
    AnalysisContext,
    Diagnostic,
    StaticVerifier,
)
from ..compiler import PremCompiler
from ..kernels import make_kernel
from ..timing.platform import Platform
from .plan import SWAP_DELAY, SWAP_DROP, SWAP_DUPLICATE

STATIC_KINDS: Tuple[str, ...] = (SWAP_DROP, SWAP_DELAY, SWAP_DUPLICATE)


@dataclass(frozen=True)
class StaticFaultCase:
    """One seeded corruption of one swap-plan transfer."""

    kind: str          # swap-drop | swap-delay | swap-duplicate
    component: str
    core: int
    array: str
    op: str            # "load" | "unload"
    index: int         # 1-based swap-event index
    magnitude: int     # delay slots / duplicate offset
    harmful: bool      # ground truth from the slot convention

    def describe(self) -> str:
        text = (f"{self.kind}({self.component}, core={self.core}, "
                f"array={self.array}, op={self.op}, index={self.index}")
        if self.kind != SWAP_DROP:
            text += f", magnitude={self.magnitude}"
        return text + ")"


@dataclass
class StaticFaultOutcome:
    """How the static verifier judged one corrupted plan."""

    case: StaticFaultCase
    diagnostics: List[Diagnostic] = field(default_factory=list)

    @property
    def detected(self) -> bool:
        return bool(self.diagnostics)

    @property
    def missed(self) -> bool:
        return self.case.harmful and not self.detected

    @property
    def false_alarm(self) -> bool:
        return not self.case.harmful and self.detected

    def codes(self) -> List[str]:
        return sorted({d.code for d in self.diagnostics})


@dataclass
class StaticCampaignResult:
    """Aggregate outcome of one static fault-detection campaign."""

    kernel_name: str
    strategy: str
    seed: int
    outcomes: List[StaticFaultOutcome]

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def harmful_total(self) -> int:
        return sum(1 for o in self.outcomes if o.case.harmful)

    @property
    def detected_harmful(self) -> int:
        return sum(
            1 for o in self.outcomes if o.case.harmful and o.detected)

    @property
    def benign_total(self) -> int:
        return self.total - self.harmful_total

    @property
    def false_alarms(self) -> int:
        return sum(1 for o in self.outcomes if o.false_alarm)

    @property
    def detection_rate(self) -> float:
        if not self.harmful_total:
            return 1.0
        return self.detected_harmful / self.harmful_total

    def missed(self) -> List[StaticFaultOutcome]:
        return [o for o in self.outcomes if o.missed]

    def by_kind(self) -> Dict[str, Tuple[int, int]]:
        """kind -> (detected harmful, total harmful)."""
        out: Dict[str, Tuple[int, int]] = {}
        for outcome in self.outcomes:
            if not outcome.case.harmful:
                continue
            hit, total = out.get(outcome.case.kind, (0, 0))
            out[outcome.case.kind] = (
                hit + (1 if outcome.detected else 0), total + 1)
        return out

    def describe(self) -> str:
        lines = [
            f"static fault campaign: {self.kernel_name} "
            f"({self.strategy}, seed {self.seed})",
            f"  {self.total} case(s), {self.harmful_total} harmful, "
            f"{self.benign_total} benign",
            f"  detection rate {self.detection_rate:.1%} "
            f"({self.detected_harmful}/{self.harmful_total}), "
            f"{self.false_alarms} false alarm(s)",
        ]
        for kind, (hit, total) in sorted(self.by_kind().items()):
            lines.append(f"    {kind}: {hit}/{total}")
        for outcome in self.missed():
            lines.append(f"    MISSED {outcome.case.describe()}")
        return "\n".join(lines)


#: Compact per-core streaming platform: a small SPM forces deep
#: double-buffered swap plans even at the SMALL preset, which is what a
#: corruption campaign needs to exercise the mid-stream hazard rules.
def campaign_platform() -> Platform:
    return Platform().with_cores(1).with_spm(8 * 1024)


def _enumerate_cases(ctx: AnalysisContext,
                     magnitudes: Tuple[int, ...]) -> List[StaticFaultCase]:
    cases: List[StaticFaultCase] = []
    for core in ctx.cores():
        for name, model in sorted(ctx.models[core].items()):
            for transfer in model.loads():
                event = model.event(transfer.event_index)
                cases.append(StaticFaultCase(
                    kind=SWAP_DROP, component=ctx.label, core=core,
                    array=name, op=LOAD, index=event.index,
                    magnitude=0, harmful=True))
                for mag in magnitudes:
                    cases.append(StaticFaultCase(
                        kind=SWAP_DELAY, component=ctx.label, core=core,
                        array=name, op=LOAD, index=event.index,
                        magnitude=mag,
                        harmful=transfer.slot + mag > event.segment))
                    cases.append(StaticFaultCase(
                        kind=SWAP_DUPLICATE, component=ctx.label,
                        core=core, array=name, op=LOAD,
                        index=event.index, magnitude=mag, harmful=True))
            for transfer in model.unloads():
                cases.append(StaticFaultCase(
                    kind=SWAP_DROP, component=ctx.label, core=core,
                    array=name, op=UNLOAD,
                    index=transfer.event_index, magnitude=0,
                    harmful=True))
    return cases


def _apply_case(models, case: StaticFaultCase) -> None:
    model = models[case.core][case.array]
    if case.kind == SWAP_DROP:
        model.drop_transfer(case.op, case.index)
    elif case.kind == SWAP_DELAY:
        model.delay_transfer(case.op, case.index, case.magnitude)
    elif case.kind == SWAP_DUPLICATE:
        model.duplicate_transfer(case.op, case.index, case.magnitude)
    else:
        raise ValueError(f"unknown static fault kind {case.kind!r}")


def run_static_campaign(kernel_name: str, preset: str = "SMALL",
                        seed: int = 7, cases: int = 200,
                        strategy: str = "heuristic",
                        platform: Optional[Platform] = None
                        ) -> StaticCampaignResult:
    """Corrupt swap-plan mirrors of one compiled kernel and score the
    static verifier's detection rate; *cases* below 1 raises
    :class:`ValueError` (an empty campaign would score 100%)."""
    if cases < 1:
        raise ValueError(f"cases must be at least 1, got {cases}")
    platform = platform or campaign_platform()
    kernel = make_kernel(kernel_name, preset)
    result = PremCompiler(platform=platform).compile(
        kernel, strategy=strategy)
    verifier = StaticVerifier(result.platform)

    contexts: List[AnalysisContext] = []
    universe: List[Tuple[int, StaticFaultCase]] = []
    for compiled in result.components:
        ctx = verifier.build_context(compiled.component, compiled.solution)
        contexts.append(ctx)
        for case in _enumerate_cases(ctx, (1, 2, 3)):
            universe.append((len(contexts) - 1, case))
    if not universe:
        raise ValueError(
            f"kernel {kernel_name!r} yields no corruptible transfers")

    rng = random.Random(seed)
    if len(universe) >= cases:
        chosen = rng.sample(universe, cases)
    else:
        chosen = list(universe)
        chosen += [rng.choice(universe)
                   for _ in range(cases - len(universe))]

    outcomes: List[StaticFaultOutcome] = []
    for ctx_idx, case in chosen:
        ctx = contexts[ctx_idx]
        models = ctx.clone_models()
        _apply_case(models, case)
        bag = verifier.verify_context(
            ctx.with_models(models),
            passes=SEMANTIC_PASSES).diagnostics
        outcomes.append(StaticFaultOutcome(
            case=case,
            diagnostics=bag.with_codes(RACE_HAZARD_CODES)))
    return StaticCampaignResult(
        kernel_name=kernel_name, strategy=strategy, seed=seed,
        outcomes=outcomes)
