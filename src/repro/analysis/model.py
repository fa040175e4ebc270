"""The artifact model the static verifier analyzes.

The verifier never runs the VM; it works on a self-contained mirror of
the compiled artifacts:

- :class:`ArraySwapModel` — one core's streaming plan for one array,
  built from the :class:`~repro.prem.macros.ArraySwapSchedule` the macro
  builder derives.  Unlike the schedule (whose slots are computed
  properties), the model materialises every DMA **transfer** as data, so
  a fault campaign can corrupt it (drop / delay / duplicate a transfer)
  and re-run the passes — the static analogue of
  :class:`~repro.faults.FaultInjector`.
- :class:`AnalysisContext` — the full bundle for one component: per-core
  swap models, the planned :class:`~repro.prem.segments.ComponentPlan`
  (re-planned on demand when a warm cache returned a plan-less result),
  buffer geometry, and lazily computed per-core read/write footprints
  for the race detector.

The model layer knows nothing about ``repro.faults`` — the import points
the other way (``faults.staticdet`` drives the corruption methods), so
the dynamic checker can emit the same ``Diagnostic`` objects without an
import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..loopir.component import TilableComponent
from ..opt.solution import Solution
from ..prem.macros import ArraySwapSchedule, MacroBuilder
from ..prem.ranges import CanonicalRange, access_range, tile_box
from ..prem.segments import RO, RW, WO, ComponentPlan
from ..prem.swapgen import validate_swap_call
from ..timing.platform import Platform

LOAD = "load"
UNLOAD = "unload"


@dataclass(frozen=True)
class EventModel:
    """The x-th range change of one array on one core (execution side).

    Execution phases consume ranges by this table regardless of what the
    DMA actually transferred — exactly how the generated code behaves —
    so corrupting the transfer list below never changes what segments
    *expect*, only what they would really find in the SPM.
    """

    index: int                         # x, 1-based
    segment: int                       # first consumer segment
    buffer: int                        # 1 or 2
    crange: Optional[CanonicalRange]   # None only in synthetic tests

    @property
    def payload_bytes(self) -> int:
        return self.crange.bytes if self.crange is not None else 0


@dataclass(frozen=True)
class Transfer:
    """One DMA operation (or WO buffer rebind) of the modelled plan."""

    op: str              # LOAD | UNLOAD
    event_index: int     # which EventModel it serves
    slot: int            # round-robin DMA slot
    buffer: int
    moves_data: bool     # False for WO rebinds (no bytes move)
    sequence: int        # insertion order; breaks same-slot ties


class ArraySwapModel:
    """Mutable per-(core, array) streaming plan the passes inspect."""

    def __init__(self, array_name: str, mode: str, core: int,
                 n_segments: int, events: List[EventModel],
                 transfers: List[Transfer]):
        self.array_name = array_name
        self.mode = mode
        self.core = core
        self.n_segments = n_segments
        self.events = events
        self.transfers = transfers

    @classmethod
    def from_schedule(cls, schedule: ArraySwapSchedule) -> "ArraySwapModel":
        events = [
            EventModel(index=e.index, segment=e.segment,
                       buffer=e.buffer, crange=e.crange)
            for e in schedule.events
        ]
        transfers: List[Transfer] = []
        loads_move = schedule.mode in (RO, RW)
        unloads = schedule.mode in (WO, RW)
        for e in schedule.events:
            transfers.append(Transfer(
                op=LOAD, event_index=e.index,
                slot=schedule.transfer_slot(e.index), buffer=e.buffer,
                moves_data=loads_move, sequence=len(transfers)))
            if unloads:
                transfers.append(Transfer(
                    op=UNLOAD, event_index=e.index,
                    slot=schedule.unload_slot(e.index), buffer=e.buffer,
                    moves_data=True, sequence=len(transfers)))
        return cls(
            array_name=schedule.array_name, mode=schedule.mode,
            core=schedule.core, n_segments=schedule.n_segments,
            events=events, transfers=transfers)

    def clone(self) -> "ArraySwapModel":
        return ArraySwapModel(
            array_name=self.array_name, mode=self.mode, core=self.core,
            n_segments=self.n_segments, events=list(self.events),
            transfers=list(self.transfers))

    # -- queries -------------------------------------------------------

    def event(self, index: int) -> EventModel:
        for event in self.events:
            if event.index == index:
                return event
        raise KeyError(
            f"{self.array_name}: no swap event with index {index}")

    def last_use(self, index: int) -> int:
        """Last segment consuming the *index*-th event's range."""
        later = [e.segment for e in self.events if e.index == index + 1]
        return later[0] - 1 if later else self.n_segments

    def loads(self) -> List[Transfer]:
        return [t for t in self.transfers if t.op == LOAD]

    def unloads(self) -> List[Transfer]:
        return [t for t in self.transfers if t.op == UNLOAD]

    def of_event(self, op: str, index: int) -> List[Transfer]:
        return [t for t in self.transfers
                if t.op == op and t.event_index == index]

    # -- corruption (the static fault campaign's injection surface) ----

    def drop_transfer(self, op: str, index: int) -> None:
        """Remove the earliest matching transfer (a vanished DMA op)."""
        victims = self.of_event(op, index)
        if not victims:
            raise KeyError(
                f"{self.array_name}: no {op} transfer for event {index}")
        self.transfers.remove(min(victims, key=lambda t: t.slot))

    def delay_transfer(self, op: str, index: int, slots: int) -> None:
        """Shift the earliest matching transfer *slots* slots later."""
        victims = self.of_event(op, index)
        if not victims:
            raise KeyError(
                f"{self.array_name}: no {op} transfer for event {index}")
        victim = min(victims, key=lambda t: t.slot)
        where = self.transfers.index(victim)
        self.transfers[where] = replace(
            victim, slot=victim.slot + max(int(slots), 0))

    def duplicate_transfer(self, op: str, index: int, offset: int) -> None:
        """Append a second copy of a transfer *offset* slots later."""
        victims = self.of_event(op, index)
        if not victims:
            raise KeyError(
                f"{self.array_name}: no {op} transfer for event {index}")
        original = min(victims, key=lambda t: t.slot)
        self.transfers.append(replace(
            original, slot=original.slot + max(int(offset), 1),
            sequence=len(self.transfers)))


@dataclass(frozen=True)
class Footprint:
    """Deduplicated main-memory hulls one core touches in one array."""

    reads: Tuple[CanonicalRange, ...]
    writes: Tuple[CanonicalRange, ...]


@dataclass
class AnalysisContext:
    """Everything the analysis passes need about one compiled component."""

    component: TilableComponent
    solution: Solution
    platform: Platform
    modes: Dict[str, str]
    models: Dict[int, Dict[str, ArraySwapModel]]   # core -> array -> model
    bounding_bytes: Dict[str, int]
    dealloc_segments: Dict[int, Dict[str, List[Tuple[int, int]]]]
    plan: Optional[ComponentPlan] = None
    footprints: Optional[Dict[int, Dict[str, Footprint]]] = field(
        default=None, repr=False)

    @property
    def label(self) -> str:
        return self.component.label()

    def cores(self) -> List[int]:
        return sorted(self.models)

    def with_models(self, models: Dict[int, Dict[str, ArraySwapModel]]
                    ) -> "AnalysisContext":
        """A shallow copy analysing *models* instead (fault campaigns)."""
        return replace(self, models=models, footprints=self.footprints)

    def clone_models(self) -> Dict[int, Dict[str, ArraySwapModel]]:
        return {
            core: {name: model.clone() for name, model in per_core.items()}
            for core, per_core in self.models.items()
        }

    def array_footprints(self) -> Dict[int, Dict[str, Footprint]]:
        """Per-core, per-array read/write hulls (computed once, cached).

        Footprints are derived from the tiling solution directly — not
        from the swap events — so the race detector cross-checks the
        planner instead of trusting it.  Tile indices are projected onto
        each array's key variables before hull construction; tiles equal
        under the projection share one hull.
        """
        if self.footprints is None:
            self.footprints = _compute_footprints(
                self.component, self.solution)
        return self.footprints


def _compute_footprints(component: TilableComponent, solution: Solution
                        ) -> Dict[int, Dict[str, Footprint]]:
    geometry = component.geometry
    names = list(component.arrays())
    sizes = solution.tile_sizes
    out: Dict[int, Dict[str, Footprint]] = {}
    hull_cache: Dict[Tuple, Tuple] = {}
    for core in range(solution.threads):
        per_core: Dict[str, Footprint] = {}
        tiles = list(solution.core_tiles(core))
        for name in names:
            key_vars = geometry.key_vars(name)
            reads: List[CanonicalRange] = []
            writes: List[CanonicalRange] = []
            seen = set()
            for indices in tiles:
                projected = tuple(indices[v] for v in key_vars)
                if projected in seen:
                    continue
                seen.add(projected)
                cache_key = (name, projected)
                hulls = hull_cache.get(cache_key)
                if hulls is None:
                    box = tile_box(component, indices, sizes)
                    hulls = (
                        access_range(component, name, box,
                                     reads=True, writes=False),
                        access_range(component, name, box,
                                     reads=False, writes=True),
                    )
                    hull_cache[cache_key] = hulls
                read_hull, write_hull = hulls
                if read_hull is not None:
                    reads.append(read_hull)
                if write_hull is not None:
                    writes.append(write_hull)
            per_core[name] = Footprint(
                reads=_dedupe(reads), writes=_dedupe(writes))
        out[core] = per_core
    return out


def _dedupe(hulls: List[CanonicalRange]) -> Tuple[CanonicalRange, ...]:
    """First occurrence of each symbolically distinct hull, in order
    (``(lo, hi)`` equality is :meth:`CanonicalRange.same_as`)."""
    unique: Dict[Tuple[object, object], CanonicalRange] = {}
    for hull in hulls:
        unique.setdefault((hull.lo, hull.hi), hull)
    return tuple(unique.values())


def build_context(component: TilableComponent, solution: Solution,
                  platform: Platform,
                  plan: Optional[ComponentPlan] = None
                  ) -> AnalysisContext:
    """Build the analysis model of one compiled component."""
    builder = MacroBuilder(component, solution)
    models: Dict[int, Dict[str, ArraySwapModel]] = {}
    deallocs: Dict[int, Dict[str, List[Tuple[int, int]]]] = {}
    for core in range(solution.threads):
        schedules = builder.core_schedules(core)
        for name, schedule in schedules.items():
            for event in schedule.events:
                problems = validate_swap_call(
                    event.call, event.crange,
                    builder.bounding_shapes[name])
                if problems:
                    raise ValueError(
                        f"core {core}: inconsistent swap call — "
                        + "; ".join(problems))
        models[core] = {
            name: ArraySwapModel.from_schedule(schedule)
            for name, schedule in schedules.items()
        }
        deallocs[core] = {
            name: list(schedule.dealloc_segments())
            for name, schedule in schedules.items()
        }
    bounding_bytes = {
        name: component.geometry.bounding_bytes(name, solution.tile_sizes)
        for name in component.arrays()
    }
    return AnalysisContext(
        component=component,
        solution=solution,
        platform=platform,
        modes=dict(builder.modes),
        models=models,
        bounding_bytes=bounding_bytes,
        dealloc_segments=deallocs,
        plan=plan,
    )
