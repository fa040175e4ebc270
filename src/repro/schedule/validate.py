"""Timing-model validation (Section 6.1's <=5% accuracy check).

The paper validates its analytic timing model by running the final
compiled kernels on gem5 and comparing against the model's predicted
makespan, reporting at most 5% deviation.  The analogue here: build the
same segment plan twice — once with the fitted parametric execution model
(what the optimizer uses) and once with the gem5-substitute machine
model's exact per-tile costs — and compare the resulting makespans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..loopir.component import TilableComponent
from ..opt.solution import Solution
from ..prem.segments import SegmentPlanner
from ..sim.machine import MachineModel
from ..timing.execmodel import ExecModel
from ..timing.platform import Platform
from .pipeline import evaluate_pipeline


class ExactExecModel:
    """Duck-typed ExecModel that returns the machine model's exact cost."""

    def __init__(self, component: TilableComponent,
                 machine: MachineModel | None = None):
        self._component = component
        self._machine = machine or MachineModel()

    def estimate(self, widths: Sequence[int]) -> float:
        return float(self._machine.tile_cost(self._component, widths))


@dataclass(frozen=True)
class ValidationResult:
    """Predicted vs simulated makespan for one solution."""

    predicted_ns: float
    simulated_ns: float

    @property
    def error(self) -> float:
        """Relative deviation (positive when the model overestimates).

        A degenerate zero-length simulation has no meaningful relative
        error: both zero means perfect agreement (0.0), otherwise the
        deviation is unbounded (``inf``).
        """
        if self.simulated_ns == 0:
            return 0.0 if self.predicted_ns == 0 else math.inf
        return (self.predicted_ns - self.simulated_ns) / self.simulated_ns


def validate_static(component: TilableComponent, solution: Solution,
                    platform: Platform):
    """Static PREM-compliance check of one solution (no VM, no timing).

    Complements :func:`validate_timing_model`: that function asks "is the
    predicted makespan accurate", this one asks "is the schedule *safe*"
    — races, double-buffer hazards, capacity, well-formedness.  Returns
    the :class:`repro.analysis.ComponentReport`.
    """
    from ..analysis import StaticVerifier
    return StaticVerifier(platform).verify_component(component, solution)


def validate_timing_model(component: TilableComponent, solution: Solution,
                          platform: Platform, exec_model: ExecModel
                          ) -> ValidationResult:
    """Compare the fitted model's makespan with the machine model's."""
    predicted_plan = SegmentPlanner(
        component, platform, exec_model).plan(solution)
    exact = ExactExecModel(component)
    simulated_plan = SegmentPlanner(
        component, platform, exact).plan(solution)
    return ValidationResult(
        predicted_ns=evaluate_pipeline(predicted_plan.cores).makespan_ns,
        simulated_ns=evaluate_pipeline(simulated_plan.cores).makespan_ns,
    )
