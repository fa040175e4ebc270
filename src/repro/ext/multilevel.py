"""Two-level SPM streaming — the first future-work direction of Chapter 7.

The thesis proposes adding a platform-level L2 SPM between main memory and
the per-core L1 SPMs: "instead of loading required data from main memory
to L1 SPM every single segment, the required data of multiple segments can
be loaded into L2 SPM at once and later again loaded into L1 SPM when the
data is required", with double buffering applied at the block level so the
main-memory transfer of the next block hides behind the current block's
execution.

This module implements that model on top of the existing planner:

- L1 swap traffic is re-priced at the (much faster) L2-to-L1 bandwidth,
  with the same per-line DMA overhead structure;
- every ``block_segments`` consecutive segments of a core form a *block*
  whose load bytes are fetched main-to-L2 in one bulk transfer at main
  bus bandwidth (long contiguous lines, so per-line overhead amortises);
- the shared L2 must hold two block buffers per core (block-level double
  buffering);
- the makespan recurrence gains a block-readiness gate: a segment may
  only execute once its block's bulk transfer has completed, and a bulk
  transfer may only start once the block two places back has finished
  executing (its L2 partition is free).  Main-to-L2 transfers serialise
  round-robin across cores on the memory controller, independently of the
  L2-to-L1 DMA.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..loopir.component import TilableComponent
from ..opt.solution import Solution
from ..prem.segments import CoreSchedule, PlanError, SegmentPlanner
from ..schedule.makespan import DEFAULT_SEGMENT_CAP
from ..timing.execmodel import ExecModel
from ..timing.platform import Platform


@dataclass(frozen=True)
class TwoLevelPlatform:
    """A Platform plus a shared L2 SPM stage."""

    base: Platform
    l2_bytes: int = 4 * 1024 * 1024
    l2_bus_bytes_per_s: float = 32e9
    l2_line_overhead_ns: float = 20.0

    def l1_view(self) -> Platform:
        """The platform the per-segment planner sees: L1 swaps are served
        from L2, so bus speed and line overhead are the L2 stage's."""
        return replace(
            self.base,
            bus_bytes_per_s=self.l2_bus_bytes_per_s,
            dma_line_overhead_ns=self.l2_line_overhead_ns,
        )

    def bulk_transfer_ns(self, payload_bytes: int) -> float:
        """Main-to-L2 time for one block: contiguous bulk at main-bus
        bandwidth plus a single line overhead."""
        if payload_bytes <= 0:
            return 0.0
        bursts = math.ceil(payload_bytes / self.base.burst_bytes)
        return (self.base.dma_line_overhead_ns
                + bursts * self.base.bus_overhead_ns_per_burst)


@dataclass
class TwoLevelResult:
    """Outcome of evaluating one solution under the two-level model."""

    makespan_ns: float
    feasible: bool
    reason: str = ""
    block_segments: int = 0
    l2_bytes_needed: int = 0
    bulk_transfer_ns_total: float = 0.0


def evaluate_two_level(component: TilableComponent, solution: Solution,
                       platform: TwoLevelPlatform, exec_model: ExecModel,
                       block_segments: int) -> TwoLevelResult:
    """Makespan of one component execution under two-level streaming."""
    if block_segments <= 0:
        raise ValueError("block_segments must be positive")

    planner = SegmentPlanner(component, platform.l1_view(), exec_model)
    try:
        plan = planner.plan(solution, DEFAULT_SEGMENT_CAP)
    except PlanError as error:
        return TwoLevelResult(math.inf, False, str(error))

    # Per-core, per-segment load bytes (to aggregate into blocks).  The
    # planner tracks totals; recompute per-segment payloads from the swap
    # schedules to stay exact.
    from ..prem.macros import MacroBuilder

    builder = MacroBuilder(component, solution, planner.modes)
    per_core_blocks: List[List[float]] = []
    per_core_block_bytes: List[List[int]] = []
    for core in plan.cores:
        if core.n_segments == 0:
            per_core_blocks.append([])
            per_core_block_bytes.append([])
            continue
        schedules = builder.core_schedules(core.core)
        seg_bytes = [0] * (core.n_segments + 1)
        for name, schedule in schedules.items():
            if schedule.mode not in ("RO", "RW"):
                continue
            for event in schedule.events:
                seg_bytes[event.segment] += event.crange.bytes
        block_bytes = []
        for first in range(1, core.n_segments + 1, block_segments):
            last = min(first + block_segments - 1, core.n_segments)
            block_bytes.append(
                sum(seg_bytes[first:last + 1]))
        per_core_block_bytes.append(block_bytes)
        per_core_blocks.append(
            [platform.bulk_transfer_ns(b) for b in block_bytes])

    l2_needed = 2 * sum(
        max(blocks, default=0) for blocks in per_core_block_bytes)
    if l2_needed > platform.l2_bytes:
        return TwoLevelResult(
            math.inf, False,
            f"blocks need {l2_needed} B of L2 (> {platform.l2_bytes} B)",
            block_segments=block_segments)

    makespan = _two_level_pipeline(
        plan.cores, per_core_blocks, block_segments)
    return TwoLevelResult(
        makespan_ns=makespan,
        feasible=True,
        block_segments=block_segments,
        l2_bytes_needed=l2_needed,
        bulk_transfer_ns_total=sum(
            sum(blocks) for blocks in per_core_blocks),
    )


def _two_level_pipeline(cores: Sequence[CoreSchedule],
                        per_core_blocks: Sequence[Sequence[float]],
                        block_segments: int) -> float:
    """The pipeline recurrence with a block-readiness stage in front."""
    active = [
        (core, blocks)
        for core, blocks in zip(cores, per_core_blocks)
        if core.n_segments > 0
    ]
    if not active:
        return 0.0

    exec_end: Dict[int, List[float]] = {}
    slot_end: Dict[int, Dict[int, float]] = {}
    block_ready: Dict[int, List[float]] = {}
    for core, _ in active:
        exec_end[core.core] = [core.init_api_ns]
        slot_end[core.core] = {}
        block_ready[core.core] = []

    # Stage 1: main-to-L2 bulk transfers, round-robin block-major.
    main_clock = 0.0
    # Bulk transfer b of core i may start once block b-2 of core i has
    # finished executing; since execution times are not yet known, the
    # recurrence interleaves stages by block rounds below.

    dma_clock = 0.0

    max_slots = max(core.n_segments + 2 for core, _ in active)
    for slot in range(1, max_slots + 1):
        block_index = (slot - 1) // block_segments
        in_block_first = (slot - 1) % block_segments == 0

        # Issue bulk transfers for any block that becomes eligible this
        # round (its first segment is `slot`, double-buffered two ahead).
        if in_block_first:
            for core, blocks in active:
                future = block_index + 1   # prefetch one block ahead
                for b in (block_index, future):
                    ready_list = block_ready[core.core]
                    if b >= len(blocks) or len(ready_list) > b:
                        continue
                    gate = 0.0
                    if b >= 2:
                        # L2 partition reuse: block b-2 must have finished.
                        last_seg = min((b - 1) * block_segments,
                                       core.n_segments)
                        ends = exec_end[core.core]
                        gate = ends[min(last_seg, len(ends) - 1)]
                    start = max(main_clock, gate)
                    main_clock = start + blocks[b]
                    ready_list.append(main_clock)

        # Stage 2: the L2-to-L1 DMA round (as in the single-level model).
        for core, _ in active:
            if slot > core.n_segments + 2:
                continue
            length = core.mem_slot_ns[slot - 1]
            if length <= 0.0:
                continue
            ends = exec_end[core.core]
            gate_idx = min(max(slot - 2, 0), len(ends) - 1)
            start = max(dma_clock, ends[gate_idx])
            # An L1 load may not start before its block is in L2.
            loads_block = min((slot - 1) // block_segments,
                              len(block_ready[core.core]) - 1)
            if loads_block >= 0 and block_ready[core.core]:
                start = max(start, block_ready[core.core][loads_block])
            dma_clock = start + length
            slot_end[core.core][slot] = dma_clock

        # Execution phases.
        for core, _ in active:
            if slot > core.n_segments:
                continue
            ends = exec_end[core.core]
            ready = ends[-1]
            dep = core.dep_slot[slot - 1]
            if dep:
                ready = max(ready, slot_end[core.core].get(dep, 0.0))
            ready_list = block_ready[core.core]
            if block_index < len(ready_list):
                ready = max(ready, ready_list[block_index])
            ends.append(ready + core.exec_ns[slot - 1])

    exec_finish = max(exec_end[core.core][-1] for core, _ in active)
    dma_finish = max(
        (max(slots.values()) for slots in slot_end.values() if slots),
        default=0.0)
    return max(exec_finish, dma_finish)


def best_block_size(component: TilableComponent, solution: Solution,
                    platform: TwoLevelPlatform, exec_model: ExecModel
                    ) -> Tuple[int, TwoLevelResult]:
    """Pick the block size minimising the two-level makespan."""
    most = max(solution.segments_on_core(c)
               for c in range(solution.threads))
    candidates = sorted({1, 2, 4, 8, 16, most}) if most else [1]
    best: Optional[Tuple[int, TwoLevelResult]] = None
    for block in candidates:
        result = evaluate_two_level(
            component, solution, platform, exec_model, block)
        if best is None or result.makespan_ns < best[1].makespan_ns:
            best = (block, result)
    assert best is not None
    return best
