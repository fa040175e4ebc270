"""PREM API macro synthesis and schedule traces (Section 3.5).

The compiler inserts three macro statements into the tiled code:
``BUFFER_ALLOC_APIS`` (initialisation segment), ``DATA_SWAP_APIS`` (start
of every tile) and ``BUFFER_DEALLOC_APIS`` (after the tiled loops).  This
module computes, per core and per array:

- the ``SegmentToSwap_a(i)`` sets — segments whose canonical range differs
  from the previous segment's;
- whether the array has a *constant change stride* (then the generated
  conditions are modulo tests on ``segCount``) or needs the bit-vector
  fallback;
- where each swap / deallocate call is issued, which of the two streaming
  buffers it targets, and the Algorithm-3 parameters of every transfer;
- a Table-3.1-style trace: per segment, the API calls executed, the DMA
  transfers running in parallel, and the SPM buffer contents afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..loopir.component import TilableComponent
from ..opt.solution import Solution
from .ranges import CanonicalRange, access_range, tile_box
from .segments import RO, RW, WO, classify_modes
from .swapgen import SwapCall, generate_swap_call


@dataclass
class SwapEvent:
    """The x-th buffer swap of one array on one core."""

    index: int                   # x, 1-based position in SegmentToSwap
    segment: int                 # first segment using the new range
    crange: CanonicalRange
    call: SwapCall

    @property
    def buffer(self) -> int:
        """1 or 2 — swaps alternate between the two streaming buffers."""
        return 1 if self.index % 2 == 1 else 2


@dataclass
class ArraySwapSchedule:
    """Per-core streaming plan of one array."""

    array_name: str
    mode: str
    core: int
    n_segments: int
    events: List[SwapEvent]

    @property
    def segments_to_swap(self) -> List[int]:
        return [event.segment for event in self.events]

    @property
    def change_stride(self) -> Optional[int]:
        """The constant stride of SegmentToSwap, or None (bit vector)."""
        segments = self.segments_to_swap
        if len(segments) < 2:
            return None
        strides = {b - a for a, b in zip(segments, segments[1:])}
        return strides.pop() if len(strides) == 1 else None

    @property
    def swap_bitvector(self) -> int:
        """Bit s set: a swap call is *issued* at the end of segment s
        (segment 0 = initialisation segment) — the fallback encoding for
        arrays without a constant change stride."""
        bits = 0
        for event in self.events:
            bits |= 1 << self.issue_segment(event.index)
        return bits

    def event_at(self, segment: int) -> Optional[SwapEvent]:
        """The swap event whose range *segment* works on: the last one
        at or before it (None before the first)."""
        current = None
        for event in self.events:
            if event.segment > segment:
                break
            current = event
        return current

    def issue_segment(self, index: int) -> int:
        """Segment whose DATA_SWAP/ALLOC macro issues the x-th swap call.

        The first two swaps are issued in the initialisation segment
        (around ``dispatch``); later ones in segment ``ST(x-1) - 1`` so the
        transfer runs right after the old data's last use (Section 3.5).
        """
        if index <= 2:
            return 0
        return self.events[index - 2].segment - 1

    def transfer_slot(self, index: int) -> int:
        """DMA slot carrying the x-th load (slot s runs during segment
        s - 1 and must finish before segment s executes)."""
        if index == 1:
            return 1
        if index == 2:
            return self.events[1].segment
        return self.events[index - 2].segment + 1

    def unload_slot(self, index: int) -> int:
        """DMA slot carrying the unload of the x-th range (WO/RW only)."""
        if index < len(self.events):
            return self.events[index].segment + 1
        return self.n_segments + 2

    def dealloc_segments(self) -> List[Tuple[int, int]]:
        """(segment, buffer) pairs for the deallocate calls."""
        m = len(self.events)
        if m == 0:
            return []
        if m == 1:
            return [(self.n_segments, 1), (self.n_segments, 2)]
        second_last_buffer = 1 if (m - 1) % 2 == 1 else 2
        last_buffer = 1 if m % 2 == 1 else 2
        return [
            (self.events[-1].segment - 1, second_last_buffer),
            (self.n_segments, last_buffer),
        ]


@dataclass
class TraceRow:
    """One row of the Table-3.1-style schedule trace."""

    segment: int                          # 0 = initialisation segment
    tile: Optional[Dict[str, int]]        # tile indices (None for init)
    calls: List[str]
    parallel_dma: List[str]               # transfers running during this seg
    spm_state: Dict[str, Tuple[str, str]]  # array -> (buf1, buf2) contents


class MacroBuilder:
    """Builds swap schedules and traces for (component, solution, core).

    Bounding shapes (the swap buffers' extents) come from the shared
    ``component.geometry``, which the search already filled."""

    def __init__(self, component: TilableComponent, solution: Solution,
                 modes: Mapping[str, str] | None = None):
        self.component = component
        self.solution = solution
        self.modes = dict(modes) if modes else classify_modes(component)
        self.bounding_shapes = {
            name: component.geometry.bounding_shape(
                name, solution.tile_sizes)
            for name in component.arrays()
        }

    # -- per-core swap schedules ------------------------------------------

    def core_schedules(self, core: int) -> Dict[str, ArraySwapSchedule]:
        tiles = list(self.solution.core_tiles(core))
        sizes = self.solution.tile_sizes
        schedules: Dict[str, ArraySwapSchedule] = {}
        for name in self.component.arrays():
            events: List[SwapEvent] = []
            previous: Optional[CanonicalRange] = None
            for segment, indices in enumerate(tiles, start=1):
                box = tile_box(self.component, indices, sizes)
                crange = access_range(self.component, name, box)
                if crange is None:
                    continue
                if previous is None or not crange.same_as(previous):
                    call = generate_swap_call(
                        crange, self.bounding_shapes[name])
                    events.append(SwapEvent(
                        index=len(events) + 1,
                        segment=segment,
                        crange=crange,
                        call=call,
                    ))
                previous = crange
            schedules[name] = ArraySwapSchedule(
                array_name=name,
                mode=self.modes[name],
                core=core,
                n_segments=len(tiles),
                events=events,
            )
        return schedules

    def segments_to_swap_uniform(self) -> bool:
        """Equation 3.1: do all cores share the same swap-segment indices?
        When true, one set of API calls (with per-thread parameters)
        serves every core."""
        reference = None
        for core in range(self.solution.threads):
            schedules = self.core_schedules(core)
            signature = {
                name: tuple(schedule.segments_to_swap)
                for name, schedule in schedules.items()
            }
            if reference is None:
                reference = signature
            elif signature != reference:
                return False
        return True

    # -- Table 3.1 trace ----------------------------------------------------

    def trace(self, core: int,
              outer: Mapping[str, int] | None = None,
              groups: Mapping[str, Sequence[str]] | None = None
              ) -> List[TraceRow]:
        """The per-segment API/DMA/SPM trace for one core.

        *groups* optionally merges arrays under a display name (the paper
        groups U_i/U_f/U_o/U_g as ``U_ifog``); *outer* pins enclosing
        iterators so addresses become concrete.
        """
        schedules = self.core_schedules(core)
        tiles = list(self.solution.core_tiles(core))
        n = len(tiles)
        display = _display_map(schedules, groups)

        calls_at: Dict[int, List[str]] = {s: [] for s in range(n + 1)}
        dma_during: Dict[int, List[str]] = {s: [] for s in range(n + 2)}
        loaded_at: Dict[Tuple[str, int], List[Tuple[int, str]]] = {}

        for name, schedule in schedules.items():
            label = display[name]
            buf = lambda b: f"{label}_buf{b}"
            mode = schedule.mode
            for event in schedule.events:
                issue = schedule.issue_segment(event.index)
                calls_at[issue].append(
                    event.call.render(buf(event.buffer), outer))
                if mode in (RO, RW):
                    slot = schedule.transfer_slot(event.index)
                    dma_during.setdefault(slot - 1, []).append(
                        f"load {event.crange!r} to {buf(event.buffer)}")
                    loaded_at.setdefault((name, event.buffer), []).append(
                        (slot - 1, repr(event.crange)))
                else:
                    # WO buffers hold data once their segment executes.
                    loaded_at.setdefault((name, event.buffer), []).append(
                        (event.segment, repr(event.crange)))
                if mode in (WO, RW):
                    slot = schedule.unload_slot(event.index)
                    dma_during.setdefault(slot - 1, []).append(
                        f"unload {event.crange!r} from {buf(event.buffer)}")
            for segment, buffer in schedule.dealloc_segments():
                calls_at[segment].append(f"deallocate({buf(buffer)})")

        calls_at[0].insert(0, "allocate buffers; ...; dispatch")
        rows: List[TraceRow] = []
        for segment in range(0, n + 1):
            state: Dict[str, Tuple[str, str]] = {}
            for name, schedule in schedules.items():
                label = display[name]
                contents = ["empty", "empty"]
                for buffer in (1, 2):
                    history = loaded_at.get((name, buffer), [])
                    current = [text for when, text in history
                               if when <= segment]
                    if current:
                        contents[buffer - 1] = current[-1]
                state[label] = (contents[0], contents[1])
            calls = list(calls_at.get(segment, []))
            calls.append("end_segment()")
            rows.append(TraceRow(
                segment=segment,
                tile=None if segment == 0 else tiles[segment - 1],
                calls=calls,
                parallel_dma=list(dma_during.get(segment, [])),
                spm_state=state,
            ))
        return rows


def _display_map(schedules: Mapping[str, ArraySwapSchedule],
                 groups: Mapping[str, Sequence[str]] | None
                 ) -> Dict[str, str]:
    display = {name: name for name in schedules}
    if groups:
        for label, members in groups.items():
            for member in members:
                if member in display:
                    display[member] = label
    return display


def render_trace(rows: Sequence[TraceRow]) -> str:
    """Human-readable rendering of a schedule trace (Table 3.1 style)."""
    lines: List[str] = []
    for row in rows:
        head = "init segment" if row.segment == 0 else \
            f"segment {row.segment} tile={row.tile}"
        lines.append(head)
        for call in row.calls:
            lines.append(f"    call: {call}")
        for op in row.parallel_dma:
            lines.append(f"    dma : {op}")
        seen = set()
        for label, (buf1, buf2) in row.spm_state.items():
            if label in seen:
                continue
            seen.add(label)
            lines.append(f"    spm : {label}_buf1={buf1} "
                         f"{label}_buf2={buf2}")
    return "\n".join(lines)
