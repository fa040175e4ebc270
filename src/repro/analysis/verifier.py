"""The static PREM-compliance verifier facade.

:class:`StaticVerifier` takes compiled artifacts — a
:class:`~repro.compiler.CompilationResult` (duck-typed; only
``components``, ``platform``, ``kernel`` and ``strategy`` are touched)
or a bare (component, solution) pair — builds the analysis model, and
runs the registered passes.  No VM execution is involved anywhere.

Compiled components carry no :class:`~repro.prem.segments.ComponentPlan`
(plans are an optimizer-internal artifact), so the verifier re-plans
each component with a **null execution model**: every fact the passes
inspect (swap events, DMA slot assignment, transfer times, API
accounting, dependencies) is independent of execution-phase estimates,
which makes the re-planned schedule byte-identical to the optimizer's
in everything that matters statically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from ..loopir.component import TilableComponent
from ..opt.solution import Solution
from ..prem.segments import PlanError, SegmentPlanner
from ..timing.platform import Platform
from .diagnostics import Diagnostic, DiagnosticBag
from .model import AnalysisContext, build_context
from .registry import DEFAULT_REGISTRY


class _NullExecModel:
    """Execution-phase estimates are irrelevant to static checking."""

    def estimate(self, widths: Tuple[int, ...]) -> float:
        return 0.0


@dataclass
class ComponentReport:
    """Verification outcome of one compiled component."""

    label: str
    context: Optional[AnalysisContext]
    diagnostics: DiagnosticBag

    @property
    def has_errors(self) -> bool:
        return self.diagnostics.has_errors


class AnalysisReport:
    """Verification outcome of a whole compilation."""

    def __init__(self, kernel_name: str, strategy: str,
                 components: List[ComponentReport]):
        self.kernel_name = kernel_name
        self.strategy = strategy
        self.components = components

    @property
    def merged(self) -> DiagnosticBag:
        bag = DiagnosticBag()
        for report in self.components:
            bag.extend(report.diagnostics)
        return bag

    @property
    def has_errors(self) -> bool:
        return any(r.has_errors for r in self.components)

    def render_text(self) -> str:
        lines = [
            f"static analysis of {self.kernel_name} "
            f"({self.strategy}): {len(self.components)} component(s)"
        ]
        for report in self.components:
            lines.append(f"-- {report.label}")
            lines.append(report.diagnostics.render_text())
        return "\n".join(lines)

    def render_json(self) -> str:
        import json
        payload = {
            "kernel": self.kernel_name,
            "strategy": self.strategy,
            "components": {
                report.label: {
                    "diagnostics": [
                        d.to_json() for d in report.diagnostics.sorted()
                    ],
                    "errors": len(report.diagnostics.errors),
                    "warnings": len(report.diagnostics.warnings),
                }
                for report in self.components
            },
            "counts": {
                "total": len(self.merged),
                "errors": len(self.merged.errors),
                "warnings": len(self.merged.warnings),
                "by_code": self.merged.by_code(),
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True)


class StaticVerifier:
    """Runs every registered analysis pass over compiled artifacts."""

    def __init__(self, platform: Platform):
        self.platform = platform

    # -- component-level ---------------------------------------------------

    def build_context(self, component: TilableComponent,
                      solution: Solution) -> AnalysisContext:
        planner = SegmentPlanner(component, self.platform, _NullExecModel())
        return build_context(
            component, solution, self.platform, plan=planner.plan(solution))

    def verify_component(self, component: TilableComponent,
                         solution: Solution,
                         passes: Optional[Iterable[str]] = None
                         ) -> ComponentReport:
        try:
            ctx = self.build_context(component, solution)
        except PlanError as exc:
            bag = DiagnosticBag()
            bag.add(Diagnostic(
                "PREM003",
                f"the solution cannot be planned: {exc}",
                component=component.label(), source="verifier"))
            return ComponentReport(
                label=component.label(), context=None, diagnostics=bag)
        return self.verify_context(ctx, passes=passes)

    def verify_context(self, ctx: AnalysisContext,
                       passes: Optional[Iterable[str]] = None
                       ) -> ComponentReport:
        bag = DEFAULT_REGISTRY.run(ctx, names=passes)
        return ComponentReport(
            label=ctx.label, context=ctx, diagnostics=bag)

    # -- compilation-level -------------------------------------------------

    def verify_compilation(self, result,
                           passes: Optional[Iterable[str]] = None
                           ) -> AnalysisReport:
        """Verify every component of a compiled kernel.

        *result* is duck-typed on ``components`` (items exposing
        ``component`` and ``solution``), ``kernel.name`` and
        ``strategy`` so the analysis layer needs no compiler import.
        """
        reports = [
            self.verify_component(
                compiled.component, compiled.solution, passes=passes)
            for compiled in result.components
        ]
        return AnalysisReport(
            kernel_name=result.kernel.name,
            strategy=getattr(result, "strategy", "?"),
            components=reports)
