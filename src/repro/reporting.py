"""Report formatting for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures; these
helpers render the rows/series as aligned text tables (printed to stdout
and archived under ``benchmarks/results/``) plus a JSON sidecar so
EXPERIMENTS.md can quote exact numbers.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

Cell = Union[str, int, float, None]


def format_value(value: Cell) -> str:
    """Human formatting: thousands separators, short floats, inf/None."""
    if value is None:
        return "-"
    if isinstance(value, str):
        return value
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.3g}"
        return f"{value:.4g}"
    return f"{value:,}"


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[Cell]],
                 title: str = "") -> str:
    """Render an aligned text table."""
    text_rows = [[format_value(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(
        h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(
            cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def results_dir() -> Path:
    """Where benchmark outputs are archived (override via REPRO_RESULTS)."""
    root = os.environ.get("REPRO_RESULTS")
    if root:
        path = Path(root)
    else:
        path = Path(__file__).resolve().parents[2] / "benchmarks" / "results"
    path.mkdir(parents=True, exist_ok=True)
    return path


class ExperimentReport:
    """Collects the rows of one experiment and archives them."""

    def __init__(self, experiment_id: str, title: str,
                 headers: Sequence[str]):
        self.experiment_id = experiment_id
        self.title = title
        self.headers = list(headers)
        self.rows: List[List[Cell]] = []
        self.notes: List[str] = []

    def add_row(self, *cells: Cell) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"{self.experiment_id}: row has {len(cells)} cells, "
                f"expected {len(self.headers)}")
        self.rows.append(list(cells))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def render(self) -> str:
        text = format_table(
            self.headers, self.rows,
            title=f"[{self.experiment_id}] {self.title}")
        if self.notes:
            text += "\n" + "\n".join(f"note: {n}" for n in self.notes)
        return text

    def save(self) -> Path:
        """Write <id>.txt and <id>.json into the results directory."""
        directory = results_dir()
        text_path = directory / f"{self.experiment_id}.txt"
        text_path.write_text(self.render() + "\n")
        payload = {
            "experiment": self.experiment_id,
            "title": self.title,
            "headers": self.headers,
            "rows": self.rows,
            "notes": self.notes,
        }
        (directory / f"{self.experiment_id}.json").write_text(
            json.dumps(payload, indent=2, default=str) + "\n")
        return text_path

    def emit(self) -> str:
        """Print, archive, and return the rendered table."""
        text = self.render()
        print("\n" + text)
        self.save()
        return text


def diagnostics_note(bag) -> str:
    """One-line :class:`~repro.analysis.DiagnosticBag` summary.

    Formatted for :meth:`ExperimentReport.add_note`, so archived benches
    record the static-verification outcome next to their numbers."""
    if not bag:
        return "static analysis: clean"
    counts = ", ".join(
        f"{code}×{count}" for code, count in sorted(
            bag.by_code().items()))
    return (f"static analysis: {len(bag.errors)} error(s), "
            f"{len(bag.warnings)} warning(s) ({counts})")


def fission_note(result) -> str:
    """One-line :class:`~repro.loopir.fission.FissionResult` summary.

    Printed by ``compile --fission auto`` and archived next to the
    fission bench numbers, so every run records which loops were
    distributed (or that the pre-pass proved nothing splittable)."""
    if not result.changed:
        return ("fission: no legal distribution "
                "(kernel unchanged)")
    splits = "; ".join(
        f"{split.var} -> {'|'.join(split.new_vars)}"
        for split in result.splits)
    return (f"fission: {len(result.splits)} loop(s) distributed "
            f"({splits})")


def engine_note(metrics) -> str:
    """One-line :class:`~repro.opt.engine.EngineMetrics` summary.

    Formatted for :meth:`ExperimentReport.add_note`, so every archived
    bench records how its numbers were produced (pool width, evaluation
    throughput, cache hit rate, worker utilization)."""
    parts = [f"engine: jobs={metrics.jobs}",
             f"{metrics.evaluations:,} evals"]
    if metrics.elapsed_s > 0:
        parts.append(f"{metrics.evaluations_per_s:,.0f} evals/s")
    parts.append(f"cache hit rate {metrics.cache_hit_rate:.1%}")
    if metrics.pruned:
        parts.append(f"{metrics.pruned:,} pruned")
    if metrics.bound_hits:
        parts.append(f"{metrics.bound_hits:,} bound hits")
    if metrics.batched:
        parts.append(f"{metrics.batched:,} batched")
    if metrics.batch_fallbacks:
        parts.append(f"{metrics.batch_fallbacks:,} batch fallbacks")
    if metrics.jobs > 1:
        parts.append(
            f"worker utilization {metrics.worker_utilization:.1%}")
    return ", ".join(parts)


def robust_note(result) -> str:
    """One-line robust-search summary for one component result.

    Accepts a :class:`~repro.opt.robust.RobustComponentResult`; shows
    the risk objective, nominal vs robust winner, the regret the nominal
    winner would have carried, and the most fragile timing parameter —
    the line archived next to robust-compile bench numbers and printed
    by ``compile --strategy robust``."""
    label = result.risk if result.risk != "cvar" \
        else f"cvar-{result.alpha:g}"
    if not result.scenario_count or result.robust is None:
        return f"robust: {label}, 0 scenarios (nominal winner kept)"
    parts = [f"robust: {label} over {result.scenario_count} scenarios "
             f"(seed {result.seed}, spread ±{result.spread:g})"]
    if result.switched:
        parts.append(
            f"winner switched {result.nominal.solution.describe()} -> "
            f"{result.robust.solution.describe()}, regret "
            f"{result.regret_ns:,.0f} ns "
            f"({result.regret_ns / result.robust.risk_ns:.2%})")
    else:
        parts.append("nominal winner already robust")
    parts.append(f"risk {result.robust.risk_ns:,.0f} ns, worst "
                 f"{result.robust.worst_ns:,.0f} ns")
    if result.sensitivity:
        top = result.sensitivity[0]
        parts.append(f"most fragile: {top.parameter} "
                     f"(+{top.delta_ns:,.0f} ns adverse)")
    return ", ".join(parts)


def pareto_note(result) -> str:
    """One-line pareto-sweep summary for one component result.

    Accepts a :class:`~repro.opt.pareto.ParetoComponentResult`; shows
    the front size, how much of the candidate space the bound tiers
    eliminated, and the makespan span the front covers — the line
    printed by ``compile --strategy pareto`` and archived next to
    frontier bench numbers."""
    if not result.front:
        return "pareto: empty front (no feasible candidate)"
    fastest = result.front[0]
    leanest = min(result.front, key=lambda p: p.spm_bytes)
    parts = [f"pareto: {result.front_size} front members from "
             f"{result.candidates:,} candidates "
             f"({result.pruned_fraction:.1%} bound-pruned, "
             f"{result.dominance_pruned:,} by dominance)"]
    parts.append(
        f"makespan {fastest.makespan_ns:,.0f} ns at "
        f"{fastest.spm_bytes:,} B SPM down to "
        f"{leanest.spm_bytes:,} B SPM at "
        f"{leanest.makespan_ns:,.0f} ns")
    return ", ".join(parts)


def pareto_table(front, title: str = "") -> str:
    """Aligned frontier table for a sweep or composed front.

    Accepts any sequence of points exposing the four objectives and
    ``describe()`` — per-component :class:`~repro.opt.pareto.
    ParetoPoint` rows and kernel-level :class:`~repro.opt.pareto.
    ComposedPoint` rows alike."""
    headers = ["makespan ns", "SPM B", "DMA B", "cores", "solution"]
    rows = [
        [point.makespan_ns, point.spm_bytes, point.dma_bytes,
         point.cores, point.describe()]
        for point in front
    ]
    return format_table(headers, rows, title=title)


def full_grid_enabled() -> bool:
    """REPRO_FULL=1 switches benches to the paper's complete sweeps."""
    return os.environ.get("REPRO_FULL", "0") not in ("", "0", "false")


def log2_label(value: float) -> str:
    """Bus speeds as the paper labels them: powers of two in GB/s."""
    if value >= 1:
        return f"{value:g}"
    return f"1/{round(1 / value):d}"
