"""Seeded fault plans and the injector the pipeline/VM hooks consult.

A :class:`FaultPlan` is a deterministic, seed-reproducible list of
:class:`FaultSpec` perturbations of the simulated machine.  The
:class:`FaultInjector` answers the narrow questions the instrumented
subsystems ask (``repro.schedule.pipeline``, ``repro.prem.runtime``):
how long does this DMA op really take, does this swap fire, where do
SPM bits flip.  With no injector attached every hook is a no-op and the
toolchain is bit-identical to the unfaulted build.

Fault kinds
-----------
``dma-jitter``     multiply one DMA op's duration (timing)
``dma-stall``      add a fixed stall to one DMA op (timing)
``exec-overrun``   stretch one core's execution phase (timing)
``swap-drop``      a planned swap transfer never happens (functional)
``swap-delay``     a swap transfer lands whole slots late (functional)
``swap-duplicate`` a swap transfer fires a second time (functional)
``spm-poison``     NaN bit-flips in freshly loaded SPM (functional)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

DMA_JITTER = "dma-jitter"
DMA_STALL = "dma-stall"
EXEC_OVERRUN = "exec-overrun"
SWAP_DROP = "swap-drop"
SWAP_DELAY = "swap-delay"
SWAP_DUPLICATE = "swap-duplicate"
SPM_POISON = "spm-poison"

TIMING_KINDS: Tuple[str, ...] = (DMA_JITTER, DMA_STALL, EXEC_OVERRUN)
FUNCTIONAL_KINDS: Tuple[str, ...] = (
    SWAP_DROP, SWAP_DELAY, SWAP_DUPLICATE, SPM_POISON)
ALL_KINDS: Tuple[str, ...] = TIMING_KINDS + FUNCTIONAL_KINDS


@dataclass(frozen=True)
class FaultSpec:
    """One injected perturbation.

    Which fields matter depends on *kind*: timing faults use
    ``core``/``slot``/``segment`` and ``magnitude``; swap faults target
    the ``index``-th swap event of ``array`` on ``core`` (``op`` picks
    the load or unload half of the combined swap); poison flips the
    ``element``-th word of the freshly loaded buffer.
    """

    kind: str
    core: Optional[int] = None
    slot: Optional[int] = None
    segment: Optional[int] = None
    array: Optional[str] = None
    index: Optional[int] = None      # 1-based swap-event index
    op: str = "load"                 # "load" | "unload"
    magnitude: float = 0.0
    element: int = 0

    def describe(self) -> str:
        coords = ", ".join(
            f"{label}={value}"
            for label, value in (
                ("core", self.core), ("slot", self.slot),
                ("segment", self.segment), ("array", self.array),
                ("index", self.index))
            if value is not None)
        extra = f", op={self.op}" if self.kind in (
            SWAP_DROP, SWAP_DELAY, SWAP_DUPLICATE) else ""
        return f"{self.kind}({coords}{extra}, magnitude={self.magnitude:g})"


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, seed-stamped collection of fault specs."""

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    @classmethod
    def single(cls, spec: FaultSpec, seed: int = 0) -> "FaultPlan":
        return cls(specs=(spec,), seed=seed)

    @classmethod
    def from_specs(cls, specs: Iterable[FaultSpec],
                   seed: int = 0) -> "FaultPlan":
        return cls(specs=tuple(specs), seed=seed)

    def of_kind(self, kind: str) -> Tuple[FaultSpec, ...]:
        return tuple(s for s in self.specs if s.kind == kind)

    def __len__(self) -> int:
        return len(self.specs)


class FaultInjector:
    """Answers the instrumentation hooks' queries for one fault plan.

    The injector is deliberately stateless across queries (pure
    functions of the plan), so replaying a run with the same plan and
    seed reproduces the same perturbed machine exactly.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan

    # -- timing side (schedule.pipeline) -------------------------------

    def mem_ns(self, core: int, slot: int, base_ns: float) -> float:
        """Faulted duration of the DMA op in *slot* of *core*."""
        out = base_ns
        for spec in self.plan.specs:
            if spec.core is not None and spec.core != core:
                continue
            if spec.slot is not None and spec.slot != slot:
                continue
            if spec.kind == DMA_JITTER:
                out *= max(spec.magnitude, 0.0)
            elif spec.kind == DMA_STALL:
                out += max(spec.magnitude, 0.0)
        return out

    def exec_ns(self, core: int, segment: int, base_ns: float) -> float:
        """Faulted duration of *segment*'s execution phase on *core*."""
        out = base_ns
        for spec in self.plan.specs:
            if spec.kind != EXEC_OVERRUN:
                continue
            if spec.core is None or spec.core != core:
                continue
            if spec.segment is not None and spec.segment != segment:
                continue
            out *= max(spec.magnitude, 0.0)
        return out

    # -- functional side (prem.runtime) ---------------------------------

    def _swap_specs(self, kind: str, core: int, array: str,
                    index: int, op: str) -> List[FaultSpec]:
        return [
            spec for spec in self.plan.specs
            if spec.kind == kind
            and (spec.core is None or spec.core == core)
            and (spec.array is None or spec.array == array)
            and (spec.index is None or spec.index == index)
            and spec.op == op
        ]

    def drops(self, core: int, array: str, index: int, op: str) -> bool:
        return bool(self._swap_specs(SWAP_DROP, core, array, index, op))

    def delay_slots(self, core: int, array: str, index: int,
                    op: str) -> int:
        return sum(
            max(int(spec.magnitude), 0)
            for spec in self._swap_specs(SWAP_DELAY, core, array, index, op))

    def duplicate_offset(self, core: int, array: str, index: int,
                         op: str) -> Optional[int]:
        specs = self._swap_specs(SWAP_DUPLICATE, core, array, index, op)
        if not specs:
            return None
        return max(int(specs[0].magnitude), 1)

    def poison_elements(self, core: int, array: str,
                        index: int) -> List[int]:
        return [
            spec.element
            for spec in self.plan.specs
            if spec.kind == SPM_POISON
            and (spec.core is None or spec.core == core)
            and (spec.array is None or spec.array == array)
            and (spec.index is None or spec.index == index)
        ]


#: An injector that perturbs nothing — handy default for wiring tests.
NULL_INJECTOR = FaultInjector(FaultPlan())
