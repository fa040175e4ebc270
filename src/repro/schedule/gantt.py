"""Text Gantt rendering of a PREM schedule (Figure 3.4-style timelines).

Takes the start/end of every phase from the pipeline recurrence's one
copy, :func:`~repro.schedule.pipeline.static_timeline`, then renders
per-lane timelines: one lane per core's execution phases and one lane
for the shared DMA.  Useful for inspecting how well memory phases hide
behind execution and where the DMA serialises cores.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..prem.segments import CoreSchedule
from .pipeline import PipelineOp, static_timeline


def schedule_spans(cores: Sequence[CoreSchedule]) -> List[PipelineOp]:
    """All phase spans of one component execution, in start order: each
    active core's initialisation segment (kind ``"init"``) plus the
    pipeline's own :func:`~repro.schedule.pipeline.static_timeline`."""
    spans = [PipelineOp("init", core.core, 0, 0.0, core.init_api_ns)
             for core in cores if core.n_segments > 0]
    spans.extend(static_timeline(cores))
    spans.sort(key=lambda s: (s.start_ns, s.core, s.kind))
    return spans


def render_gantt(cores: Sequence[CoreSchedule], width: int = 72,
                 max_segments: Optional[int] = None) -> str:
    """ASCII timeline: one row per core plus a DMA row.

    Execution phases print as digits (segment number mod 10), init as
    ``i``, DMA transfers as the owning core's digit on the DMA lane.
    """
    spans = schedule_spans(cores)
    if not spans:
        return "(empty schedule)"
    if max_segments is not None:
        spans = [s for s in spans
                 if s.kind != "exec" or s.index <= max_segments]
    horizon = max(span.end_ns for span in spans)
    if horizon <= 0:
        return "(zero-length schedule)"
    scale = width / horizon

    core_ids = sorted({span.core for span in spans})
    lanes: Dict[str, List[str]] = {}
    for core in core_ids:
        lanes[f"core {core}"] = [" "] * width
    lanes["dma   "] = [" "] * width

    for span in spans:
        first = min(width - 1, int(span.start_ns * scale))
        last = min(width - 1, max(first, int(span.end_ns * scale) - 1))
        if span.kind == "mem":
            lane = lanes["dma   "]
            glyph = str(span.core % 10)
        else:
            lane = lanes[f"core {span.core}"]
            glyph = "i" if span.kind == "init" else str(span.index % 10)
        for column in range(first, last + 1):
            lane[column] = glyph

    lines = [f"0 ns {'-' * (width - 14)} {horizon:,.0f} ns"]
    for label, cells in lanes.items():
        lines.append(f"{label} |{''.join(cells)}|")
    return "\n".join(lines)
