"""PREM schedule evaluation: pipeline recurrence, makespan."""

from .gantt import render_gantt, schedule_spans
from .makespan import (
    DEFAULT_SEGMENT_CAP,
    MakespanEvaluator,
    MakespanResult,
)
from .pipeline import (
    PipelineOp,
    PipelineResult,
    evaluate_pipeline,
    static_timeline,
)
from .validate import (
    ExactExecModel,
    ValidationResult,
    validate_static,
    validate_timing_model,
)

__all__ = [
    "render_gantt", "schedule_spans",
    "DEFAULT_SEGMENT_CAP", "MakespanEvaluator", "MakespanResult",
    "PipelineOp", "PipelineResult", "evaluate_pipeline", "static_timeline",
    "ExactExecModel", "ValidationResult", "validate_static",
    "validate_timing_model",
]
