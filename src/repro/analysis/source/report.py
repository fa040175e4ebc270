"""The ``analyze --source`` report: verdicts, plan, diagnostics.

:func:`analyze_source` is the facade the CLI (and tests) call: build a
:class:`SourceContext`, run the PREM5xx registry over it, and wrap the
results with deterministic text/JSON renderers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from ...errors import ChainConsistencyError
from ...loopir.ast import Kernel
from ...loopir.validity import level_parallel, level_tilable
from ..diagnostics import DiagnosticBag
from .context import SourceContext, build_source_context
from .registry import SOURCE_REGISTRY


@dataclass
class SourceReport:
    """Outcome of the source-level analysis of one kernel."""

    context: SourceContext
    diagnostics: DiagnosticBag

    @property
    def kernel(self) -> Kernel:
        return self.context.kernel

    @property
    def ok(self) -> bool:
        return not self.diagnostics.has_errors

    # -- level verdicts ------------------------------------------------

    def level_verdicts(self) -> List[Dict[str, object]]:
        """Per-loop tilability/parallelizability, nesting order."""
        ctx = self.context
        rows: List[Dict[str, object]] = []
        for loop, _ in ctx.kernel.walk_loops():
            var = loop.var
            try:
                tilable = level_tilable(var, ctx.dependences, ctx.heads)
                parallel = level_parallel(var, ctx.dependences, ctx.heads)
            except ChainConsistencyError:
                tilable = parallel = False
            count = ctx.loop_counts.get(var, (0, True))
            rows.append({
                "var": var,
                "head": ctx.heads.get(var, var),
                "N": loop.n,
                "I": count[0],
                "exact": count[1],
                "tilable": tilable,
                "parallel": parallel,
            })
        return rows

    # -- rendering -----------------------------------------------------

    def render_text(self) -> str:
        ctx = self.context
        kinds: Dict[str, int] = {}
        for dep in ctx.dependences:
            kinds[dep.kind] = kinds.get(dep.kind, 0) + 1
        dep_line = f"dependences: {len(ctx.dependences)}"
        if kinds:
            dep_line += " (" + ", ".join(
                f"{k} {kinds[k]}" for k in sorted(kinds)) + ")"
        lines = [
            f"source analysis: {ctx.kernel.name}",
            f"statements : "
            f"{sum(1 for _ in ctx.kernel.walk_stmts())}",
            dep_line,
        ]
        lines.append("levels:")
        for row in self.level_verdicts():
            flags = []
            if row["tilable"]:
                flags.append("tilable")
            if row["parallel"]:
                flags.append("parallel")
            if not row["exact"]:
                flags.append("I~approx")
            tag = " ".join(flags) or "sequential"
            lines.append(
                f"  {row['var']}: N={row['N']} I={row['I']} "
                f"head={row['head']} [{tag}]")
        if ctx.splits:
            lines.append(
                f"fission: {len(ctx.splits)} loop(s) distributable")
            for split in ctx.splits:
                lines.append(f"  {split.describe()}")
        else:
            lines.append("fission: no legal distribution")
        lines.append(self.diagnostics.render_text())
        return "\n".join(lines)

    def to_json(self) -> Dict[str, object]:
        ctx = self.context
        return {
            "kernel": ctx.kernel.name,
            "statements": sum(1 for _ in ctx.kernel.walk_stmts()),
            "dependences": [repr(dep) for dep in ctx.dependences],
            "levels": self.level_verdicts(),
            "fission": [
                {"var": s.var,
                 "new_vars": list(s.new_vars),
                 "groups": [list(g) for g in s.groups]}
                for s in ctx.splits
            ],
            "diagnostics": json.loads(self.diagnostics.render_json()),
        }

    def render_json(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


def analyze_source(kernel: Kernel,
                   passes: Optional[Iterable[str]] = None) -> SourceReport:
    """Run the PREM5xx passes over *kernel* and wrap the findings."""
    context = build_source_context(kernel)
    bag = SOURCE_REGISTRY.run(context, passes)
    return SourceReport(context=context, diagnostics=bag)
