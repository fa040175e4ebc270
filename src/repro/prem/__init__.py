"""PREM model: ranges, segments, swap generation, macros, codegen, VM."""

from .codegen import CodeGenerator
from .macros import ArraySwapSchedule, MacroBuilder, SwapEvent, render_trace
from .ranges import (
    CanonicalRange,
    canonical_range,
    partial_bounds,
    ranges_overlap,
    tile_box,
)
from .runtime import (
    PremRuntime,
    SequentialInterpreter,
    SpmBufferView,
    init_arrays,
    run_kernel_prem,
)
from .segments import (
    RO,
    RW,
    WO,
    ArrayPlan,
    ComponentPlan,
    CoreSchedule,
    PlanError,
    SegmentPlanner,
    classify_modes,
    swap_api_name,
)
from .swapgen import SwapCall, generate_swap_call, validate_swap_call

__all__ = [
    "CodeGenerator",
    "ArraySwapSchedule", "MacroBuilder", "SwapEvent", "render_trace",
    "CanonicalRange", "canonical_range", "partial_bounds", "ranges_overlap",
    "tile_box",
    "PremRuntime", "SequentialInterpreter", "SpmBufferView", "init_arrays",
    "run_kernel_prem",
    "RO", "RW", "WO", "ArrayPlan", "ComponentPlan", "CoreSchedule",
    "PlanError", "SegmentPlanner", "classify_modes", "swap_api_name",
    "SwapCall", "generate_swap_call", "validate_swap_call",
]
