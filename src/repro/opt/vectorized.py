"""Vectorized batch makespan evaluation over candidate arrays.

Every optimizer in this package ultimately scores candidates one at a
time: ``SegmentPlanner.plan`` walks each core's odometer in Python and
``evaluate_pipeline`` replays the event-driven recurrence per solution.
This module evaluates *batches* of candidates instead: a whole slice of
the search space (tile-size points sharing one thread-group assignment)
is materialized as numpy tensors of shape ``(candidates, cores, slots)``
and the planner's slot-assignment rules run once over the whole batch.
The pipeline recurrence then runs one of two ways.  A chunk of at most
``NARROW_CHUNK`` candidates — Algorithm 1's probe pairs and window
scans — cuts each candidate's core schedules out of the tensors and
calls the one ``evaluate_pipeline``; a wider chunk — the pruned and
robust walks' windows — runs the recurrence over all candidates in
lockstep, one numpy step per (slot, core), which only pays off across
many lanes.

The vector model is **exact**, not a bound (contrast ``repro.opt.bounds``
which re-associates sums into closed forms and therefore needs a safety
factor): every floating-point accumulation replicates the serial
operation order — per-array API charges in array-dict order, loads
before unloads, the handler pass last, ``max`` then ``add`` in the
recurrence — and IEEE-754 elementwise numpy arithmetic equals Python
float arithmetic operation for operation.  Transfer times are read
from the serial planner's own
:meth:`~repro.prem.segments.SegmentPlanner.priced_table` — the
component's shared hull table, priced on the planner's platform and
indexed by each event's remainder mask exactly as the serial plan
indexes it — and execution estimates apply the same exec model at the
same widths, so batch and serial scoring are bit-identical, not merely
close (DESIGN.md §11 states the argument; the hypothesis parity tests
enforce it).

Exactness contract: a candidate is scored by the vector engine whenever
its padded tensor slice fits the cell budget (``cores * (segments + 2)
<= max_cells``); preflight-infeasible candidates (segment cap, SPM,
overlap legality) are decided exactly by
:meth:`SegmentPlanner.preflight` itself — the one copy of those rules,
with the planner's own error strings; its memos live in the planner
(array plans by tile sizes) and in :class:`TileGeometry` (the
separating-dimension test).  Anything else — in practice only absurdly
segment-heavy candidates under a tiny budget — falls back to the
event-driven simulator.  The per-call
``exactness_mask`` records the routing and ``fallbacks`` counts it;
fallbacks are never silent.  The searches reach this module through
:func:`repro.opt.engine.score`, which counts the routing on the
search's ``EngineMetrics`` record, inline or in a pool worker alike.

Results are adopted through :meth:`MakespanEvaluator.record`, so
memo, persistent cache and the ``evaluations`` counter behave exactly
as if the serial loop had run: warm re-runs still perform zero fresh
evaluations and cold/warm searches see identical incumbent histories.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import OptimizerTimeout
from ..prem.segments import RO, RW, CoreSchedule, PlanError
from ..schedule.makespan import MakespanEvaluator, MakespanResult
from ..schedule.pipeline import evaluate_pipeline
from .solution import Solution

#: Cell budget of one batch tensor (candidates × cores × padded slots).
#: At float64 this caps each of the ~8 live tensors near 4 MiB; a single
#: candidate at the default 8192-segment evaluation cap still fits.
DEFAULT_MAX_CELLS = 1 << 19

#: Chunks of at most this many candidates are scored by the one
#: ``evaluate_pipeline``, one candidate at a time; wider chunks run the
#: lockstep recurrence, whose per-step numpy overhead only pays off
#: across many lanes.
NARROW_CHUNK = 8


class BatchEvaluator:
    """Bit-exact batched twin of :meth:`MakespanEvaluator.evaluate`.

    ``evaluate_batch(solutions)`` returns results aligned with the
    input, with the same values, cache entries and counter movements a
    serial ``[evaluator.evaluate(s) for s in solutions]`` loop would
    produce — only faster, because candidates sharing a thread-group
    assignment are scored as one array program."""

    def __init__(self, evaluator: MakespanEvaluator,
                 max_cells: int = DEFAULT_MAX_CELLS):
        self.evaluator = evaluator
        self.max_cells = int(max_cells)
        #: Candidates decided by the vector engine (exact), lifetime.
        self.scored = 0
        #: Candidates routed to the event-driven simulator, lifetime.
        self.fallbacks = 0
        #: Preflight-exact infeasible candidates, lifetime.
        self.infeasible = 0
        #: Batch tensor programs executed, lifetime.
        self.batches = 0
        #: Per-candidate routing of the most recent call: True when the
        #: vector model decided the candidate (including cache hits and
        #: preflight-exact infeasibles), False for simulator fallbacks.
        self.exactness_mask: List[bool] = []

    # -- public ------------------------------------------------------------

    def evaluate_batch(self, solutions: Sequence[Solution]
                       ) -> List[MakespanResult]:
        """Evaluate every solution; results align with the input order."""
        results: List[Optional[MakespanResult]] = [None] * len(solutions)
        exact: List[bool] = [True] * len(solutions)
        fresh: Dict[tuple, List[int]] = {}
        order: List[Tuple[tuple, Solution]] = []
        for i, solution in enumerate(solutions):
            key = solution.key()
            if key in fresh:
                fresh[key].append(i)     # duplicate: resolved post-score
                continue
            hit = self.evaluator.peek(solution)
            if hit is not None:
                results[i] = hit
                continue
            fresh[key] = [i]
            order.append((key, solution))
        if order:
            self.evaluator.check_deadline()
            self._score_fresh(order, fresh, results, exact, solutions)
        # In-batch duplicates memo-hit exactly like a serial loop would.
        for key, places in fresh.items():
            for i in places[1:]:
                results[i] = self.evaluator.peek(solutions[i])
                exact[i] = exact[places[0]]
        self.exactness_mask = exact
        return results                                   # type: ignore

    # -- routing -----------------------------------------------------------

    def _place(self, results, fresh: Dict[tuple, List[int]], key: tuple,
               result: MakespanResult) -> None:
        results[fresh[key][0]] = result

    def _batch_segments(self, solutions: List[Solution]) -> np.ndarray:
        """``max_segments_per_core()`` for solutions sharing one R vector.

        The core -> group map depends only on the shared thread-group
        assignment, so one gather of (M, Z) per solution replaces
        ``cores`` Python-level odometer walks per candidate."""
        sol0 = solutions[0]
        depth = len(sol0.levels)
        cores = sol0.threads
        B = len(solutions)
        M = np.empty((B, depth), np.int64)
        Z = np.empty((B, depth), np.int64)
        for bi, solution in enumerate(solutions):
            for j, level in enumerate(solution.levels):
                M[bi, j] = level.M
                Z[bi, j] = level.Z
        gid = np.array([sol0.group_ids(i) for i in range(cores)], np.int64)
        first = gid[None, :, :] * Z[:, None, :]
        cnt = np.maximum(
            np.minimum(first + Z[:, None, :], M[:, None, :]) - first, 0)
        return cnt.prod(axis=2).max(axis=1)

    def _score_fresh(self, order, fresh, results, exact, solutions) -> None:
        evaluator = self.evaluator
        by_r: Dict[Tuple[int, ...], List[tuple]] = {}
        for key, solution in order:
            rkey = tuple(level.R for level in solution.levels)
            by_r.setdefault(rkey, []).append((key, solution))
        segs_by_key: Dict[tuple, int] = {}
        for group in by_r.values():
            counts = self._batch_segments([s for _, s in group])
            for (key, _sol), segs in zip(group, counts):
                segs_by_key[key] = int(segs)
        planner = evaluator.planner
        batches: Dict[Tuple[int, ...], List[tuple]] = {}
        for key, solution in order:
            segs = segs_by_key[key]
            try:
                plans, spm = planner.preflight(
                    solution, evaluator.segment_cap, segments=segs)
            except PlanError as error:
                self.scored += 1
                self.infeasible += 1
                self._place(results, fresh, key, evaluator.record(
                    solution, math.inf, False, str(error)))
                continue
            cells = solution.threads * (segs + 2)
            if cells > self.max_cells:
                self.fallbacks += 1
                for i in fresh[key]:
                    exact[i] = False
                self._place(results, fresh, key,
                            evaluator.evaluate(solution))
                continue
            rkey = tuple(level.R for level in solution.levels)
            batches.setdefault(rkey, []).append(
                (key, solution, plans, spm, segs, cells))
        for entries in batches.values():
            entries.sort(key=lambda e: e[4])   # pad less: chunk by size
            pos = 0
            while pos < len(entries):
                end = pos + 1
                worst = entries[end - 1][4]
                width = entries[0][1].threads
                while end < len(entries):
                    nxt = max(worst, entries[end][4])
                    if (end - pos + 1) * width * (nxt + 2) > self.max_cells:
                        break
                    worst = nxt
                    end += 1
                chunk = entries[pos:end]
                makespans, transferred = self._score_chunk(chunk)
                for (key, solution, _plans, spm, _s, _c), ms, xfer in zip(
                        chunk, makespans, transferred):
                    self.scored += 1
                    self._place(results, fresh, key, evaluator.record(
                        solution, float(ms), True,
                        spm_bytes=spm, transferred_bytes=int(xfer)))
                pos = end

    # -- the tensor program ------------------------------------------------

    def _score_chunk(self, entries: List[tuple]
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact makespans of candidates sharing one R-assignment.

        Returns ``(makespan_ns, transferred_bytes)`` arrays aligned with
        *entries*.  Every accumulation mirrors the order
        :meth:`SegmentPlanner._assign_slots` and ``evaluate_pipeline``
        use, which is what makes the result bit-identical."""
        evaluator = self.evaluator
        platform = evaluator.platform
        planner = evaluator.planner
        modes = planner.modes
        self.batches += 1

        sol0 = entries[0][1]
        depth = len(sol0.levels)
        cores = sol0.threads
        B = len(entries)

        K = np.empty((B, depth), np.int64)
        M = np.empty((B, depth), np.int64)
        Z = np.empty((B, depth), np.int64)
        rem = np.empty((B, depth), np.int64)
        for bi, (_key, solution, *_rest) in enumerate(entries):
            for j, level in enumerate(solution.levels):
                K[bi, j] = level.K
                M[bi, j] = level.M
                Z[bi, j] = level.Z
                rem[bi, j] = level.remainder_width
        # The core -> group map depends only on the shared R vector.
        gid = np.array([sol0.group_ids(i) for i in range(cores)], np.int64)

        first = gid[None, :, :] * Z[:, None, :]
        last = np.minimum(first + Z[:, None, :], M[:, None, :])
        cnt = np.maximum(last - first, 0)                  # (B, P, d)
        has_rem = (cnt > 0) & (last == M[:, None, :]) \
            & (rem[:, None, :] != K[:, None, :])

        names = list(entries[0][2])
        sizes = [entry[1].tile_sizes for entry in entries]

        # A core's whole event structure — odometer masks, rollovers,
        # event slots, API charges, dependencies — is a function of its
        # per-level (count, has-remainder) row plus which levels are
        # relevant to each array.  Cores repeat those rows heavily (all
        # cores of a candidate often share one), so the structure is
        # computed once per *unique row* and expanded by gather.
        relids: Dict[tuple, int] = {}
        relcol = np.empty(B, np.int64)
        for bi, entry in enumerate(entries):
            plans = entry[2]
            rk = tuple(plans[name].relevant_levels for name in names)
            relcol[bi] = relids.setdefault(rk, len(relids))
        rows = np.concatenate([
            cnt.reshape(B * cores, depth),
            has_rem.reshape(B * cores, depth).astype(np.int64),
            np.repeat(relcol, cores)[:, None],
        ], axis=1)
        urows, uidx, uinv = np.unique(
            rows, axis=0, return_index=True, return_inverse=True)
        U = len(urows)
        u_of = uinv.reshape(B, cores)
        rep_b = uidx // cores          # representative candidate per row

        cnt_u = urows[:, :depth]
        has_rem_u = urows[:, depth:2 * depth].astype(bool)
        cnt_safe = np.maximum(cnt_u, 1)
        stride = np.ones((U, depth), np.int64)
        for j in range(depth - 2, -1, -1):
            stride[:, j] = stride[:, j + 1] * cnt_safe[:, j + 1]
        n_pc_u = cnt_u.prod(axis=1)                        # (U,)
        active_u = n_pc_u > 0
        S = int(n_pc_u.max())
        pos = np.arange(S, dtype=np.int64)
        pos_valid = active_u[:, None] & (pos[None, :] < n_pc_u[:, None])
        pos_zero = pos[None, :] == 0

        # Remainder bitmask and rollover level per odometer position.
        # rollover(p>=1) is the unique level j with p % stride_j == 0 and
        # z_j(p) != 0 — the level the serial walk increments at p.
        mask_u = np.zeros((U, S), np.int64)
        roll = np.full((U, S), -1, np.int64)
        for j in range(depth):
            q = pos[None, :] // stride[:, j:j + 1]
            zj = q % cnt_safe[:, j:j + 1]
            at_rem = (zj == cnt_u[:, j:j + 1] - 1) & has_rem_u[:, j:j + 1]
            mask_u |= at_rem.astype(np.int64) << j
            advanced = (q * stride[:, j:j + 1] == pos[None, :]) & (zj != 0)
            roll = np.where(advanced, j, roll)
        roll_c = np.clip(roll, 0, depth - 1)

        dispatch, end_segment, alloc, dealloc, handler = platform.api_costs(
            "dispatch", "end_segment", "allocate_buffer",
            "deallocate_buffer", "DMA_int_handler")
        init_u = np.full(U, dispatch + end_segment)
        api_u = np.full((U, S), end_segment)
        dep_u = np.zeros((U, S), np.int64)
        mem = np.zeros((B, cores, S + 2))
        load_total = np.zeros(B, np.int64)
        unload_total = np.zeros(B, np.int64)
        b_col = np.arange(B)[:, None, None]

        for name in names:
            rel_u = np.zeros((U, depth), bool)
            for u in range(U):
                plans = entries[rep_b[u]][2]
                for r in plans[name].relevant_levels:
                    rel_u[u, r] = True
            swap_cost = platform.api_cost(entries[0][2][name].swap_api)
            loads = modes[name] in (RO, RW)
            unloads = not loads or modes[name] == RW

            # changed(rollover): a relevant level at/after the rollover
            # actually advances on this core (count > 1 or == rollover).
            multi = rel_u & (cnt_u > 1)
            tail = np.zeros((U, depth + 1), bool)
            for r in range(depth - 1, -1, -1):
                tail[:, r] = tail[:, r + 1] | multi[:, r]
            changed = rel_u | tail[:, 1:]
            changed_at = np.take_along_axis(changed, roll_c, axis=1)
            flag = pos_valid & (pos_zero | ((roll >= 0) & changed_at))
            m_u = flag.sum(axis=1)                         # (U,)
            if not m_u.any():
                continue

            # np.nonzero walks row-major, so events arrive grouped by
            # row in increasing odometer position: the within-group
            # ordinal and the previous/next event position are
            # one-dimensional shifts along the event vector.
            eu, ep = np.nonzero(flag)
            ne = len(eu)
            gidx = np.arange(ne, dtype=np.int64)
            new_grp = np.empty(ne, bool)
            new_grp[0] = True
            np.not_equal(eu[1:], eu[:-1], out=new_grp[1:])
            e_idx = gidx - np.maximum.accumulate(
                np.where(new_grp, gidx, 0))
            e_prev = np.empty(ne, np.int64)
            e_prev[0] = -1
            e_prev[1:] = ep[:-1]
            e_prev[new_grp] = -1
            last_grp = np.empty(ne, bool)
            last_grp[-1] = True
            last_grp[:-1] = new_grp[1:]
            e_next = np.empty(ne, np.int64)
            e_next[-1] = S + 2
            e_next[:-1] = ep[1:]
            e_next[last_grp] = S + 2
            e_m = m_u[eu]
            e_n = n_pc_u[eu]

            # Transfer values from the planner's priced hull tables: the
            # range of an event depends on the candidate (through its
            # tile sizes) and on the remainder mask of its key levels,
            # so a (candidate, submask) table bridges the row-level
            # structure and per-candidate values.
            kv = set(planner.geometry.key_vars(name))
            keymask = 0
            for j, level in enumerate(sol0.levels):
                if level.var in kv:
                    keymask |= 1 << j
            e_sub = mask_u[eu, ep] & keymask
            sub_vals, e_scol = np.unique(e_sub, return_inverse=True)
            subs = sub_vals.tolist()
            nsv = len(subs)
            t_table = np.zeros((B, nsv + 1))      # last column: no event
            p_table = np.zeros((B, nsv), np.int64)
            for bi in range(B):
                table_mask, priced = planner.priced_table(name, sizes[bi])
                for ci, sub in enumerate(subs):
                    t_table[bi, ci], p_table[bi, ci] = \
                        priced[sub & table_mask]

            # Initialisation-segment API charges, in serial order:
            # 2×allocate, then the first two swaps.
            init_u = init_u + np.where(m_u > 0, 2 * alloc, 0.0)
            init_u = init_u + np.where(m_u >= 1, swap_cost, 0.0)
            init_u = init_u + np.where(m_u >= 2, swap_cost, 0.0)

            # Event slots become per-row templates of submask columns
            # (sentinel ``nsv`` = no event, transfer 0.0); expanding a
            # template through ``u_of`` and the value table adds every
            # core's transfers in one gather.  Slots within each pass
            # are pairwise distinct per row, so plain assignment works.
            counts = np.bincount(
                eu * nsv + e_scol, minlength=U * nsv).reshape(U, nsv)
            per_cand = counts[u_of].sum(axis=1)            # (B, nsv)
            dep_val = np.zeros(ne, np.int64)
            if loads:
                slot = np.where(e_idx == 0, 1,
                                np.where(e_idx == 1, ep + 1, e_prev + 2))
                tmpl = np.full((U, S + 2), nsv, np.int64)
                tmpl[eu, slot - 1] = e_scol
                mem += t_table[b_col, tmpl[u_of]]
                load_total += (per_cand * p_table).sum(axis=1)
                dep_val = slot
            if unloads:
                dep_val = np.maximum(
                    dep_val, np.where(e_idx >= 2, e_prev + 2, 0))
            dep_u[eu, ep] = np.maximum(dep_u[eu, ep], dep_val)

            late = e_idx >= 2
            if late.any():
                api_u[eu[late], e_prev[late] - 1] += swap_cost
            if unloads:
                uslot = np.where(e_idx + 1 < e_m, e_next + 2, e_n + 2)
                tmpl = np.full((U, S + 2), nsv, np.int64)
                tmpl[eu, uslot - 1] = e_scol
                mem += t_table[b_col, tmpl[u_of]]
                unload_total += (per_cand * p_table).sum(axis=1)

            # Deallocation charges hang off each row's last event: two
            # singles when it had several events, one doubled charge
            # when it had exactly one.
            many = last_grp & (e_m >= 2)
            if many.any():
                api_u[eu[many], ep[many] - 1] += dealloc
                api_u[eu[many], e_n[many] - 1] += dealloc
            single = last_grp & (e_m == 1)
            if single.any():
                api_u[eu[single], e_n[single] - 1] += 2 * dealloc

        # Expand the row-level structure to (candidate, core) tensors.
        n_pc = n_pc_u[u_of]                                # (B, P)
        active = n_pc > 0
        init = init_u[u_of]
        api = api_u[u_of]
        dep = dep_u[u_of]
        mask_t = mask_u[u_of]

        # DMA completion interrupts, charged after every array (the
        # serial handler pass runs last): slot 1 lands on the
        # initialisation segment, slot s on segment s - 2 when it exists.
        has_mem = mem > 0.0
        init = init + np.where(has_mem[:, :, 0], handler, 0.0)
        if S >= 1:
            slots = np.arange(2, S + 3, dtype=np.int64)
            cond = has_mem[:, :, 1:] & ((slots - 2)[None, None, :]
                                        < n_pc[:, :, None])
            api = api + np.where(cond[:, :, :S], handler, 0.0)

        # Execution phases: the §4.2 model at the masked widths, scaled
        # to ns exactly like SegmentPlanner._exec_estimate.
        width_arrays = []
        for j in range(depth):
            bit = ((mask_t >> j) & 1).astype(bool)
            width_arrays.append(np.where(
                bit, rem[:, None, j:j + 1], K[:, None, j:j + 1]))
        cycles = evaluator.exec_model.estimate_batch(width_arrays)
        exec_ns = cycles * platform.ns_per_cycle + api
        transferred = load_total + unload_total

        if B <= NARROW_CHUNK:
            return self._pipeline_makespans(
                init, exec_ns, mem, dep, n_pc), transferred

        # Event-driven recurrence, all candidates in lockstep.  The DMA
        # clock chains through (slot, core) in round-robin order, so
        # that double loop stays in Python; everything inside it is a
        # (B,)-vector op on candidate-contiguous views.  Lanes without a
        # DMA op in a slot carry ``gate = -inf`` and ``length = 0``,
        # which leaves their clock bitwise unchanged (``max(c, -inf) +
        # 0.0 == c`` for ``c >= 0``) without a per-lane select.  The
        # pipeline's clamp of the gate index to the built prefix of the
        # exec chain is equivalent to reading the forward-filled
        # ``e_hist[s - 2]`` column: past a core's last segment the
        # columns repeat its final value.
        slot_idx = np.arange(1, S + 3, dtype=np.int64)
        valid_T = np.ascontiguousarray(
            (active[:, :, None] & has_mem
             & (slot_idx[None, None, :] <= n_pc[:, :, None] + 2)
             ).transpose(1, 2, 0))                         # (P, S+2, B)
        length_T = np.where(valid_T, mem.transpose(1, 2, 0), 0.0)
        valid_any = valid_T.any(axis=2)                    # (P, S + 2)
        valid_e_T = np.ascontiguousarray(
            (active[:, :, None]
             & (np.arange(1, S + 1)[None, None, :] <= n_pc[:, :, None])
             ).transpose(1, 2, 0))                         # (P, S, B)
        exec_T = np.ascontiguousarray(exec_ns.transpose(1, 2, 0))
        dep_T = np.ascontiguousarray(dep.transpose(1, 2, 0))

        e_hist = np.zeros((cores, S + 1, B))
        e_hist[:, 0, :] = np.where(active, init, 0.0).T
        slot_end = np.zeros((cores, S + 3, B))
        # Flat-index gather table for the exec-pass dependency lookup:
        # slot_end[i, d, b] lives at ((i * (S + 3)) + d) * B + b.
        slot_end_flat = slot_end.reshape(-1)
        dep_flat = (np.arange(cores, dtype=np.int64)[:, None, None]
                    * (S + 3) + dep_T) * B \
            + np.arange(B, dtype=np.int64)[None, None, :]
        dma_clock = np.zeros(B)
        for s in range(1, S + 3):
            for i in range(cores):
                if not valid_any[i, s - 1]:
                    continue
                gate = np.where(
                    valid_T[i, s - 1], e_hist[i, max(s - 2, 0)], -np.inf)
                np.maximum(dma_clock, gate, out=dma_clock)
                dma_clock += length_T[i, s - 1]
                # The unmasked store is safe: a lane's clock is
                # non-decreasing and dependency lookups only read slots
                # where that lane had its own DMA op, so stale lanes
                # never observe a value the masked store would hide and
                # the final per-lane max is the lane's last clock either
                # way.
                slot_end[i, s] = dma_clock
            if s <= S:
                ready = np.maximum(
                    e_hist[:, s - 1],
                    np.take(slot_end_flat, dep_flat[:, s - 1]))
                e_hist[:, s] = np.where(
                    valid_e_T[:, s - 1], ready + exec_T[:, s - 1],
                    e_hist[:, s - 1])

        makespan = np.maximum(
            e_hist[:, S, :].max(axis=0), slot_end.max(axis=(0, 1)))
        return makespan, transferred

    @staticmethod
    def _pipeline_makespans(init, exec_ns, mem, dep, n_pc) -> np.ndarray:
        """Each candidate's makespan from the one ``evaluate_pipeline``,
        over core schedules cut from the chunk's tensors."""
        init_l, exec_l, mem_l, dep_l, n_l = (
            init.tolist(), exec_ns.tolist(), mem.tolist(), dep.tolist(),
            n_pc.tolist())
        makespans = np.empty(len(n_l))
        for b, counts in enumerate(n_l):
            makespans[b] = evaluate_pipeline([
                CoreSchedule(
                    core=i, n_segments=n, init_api_ns=init_l[b][i],
                    exec_ns=exec_l[b][i][:n], mem_slot_ns=mem_l[b][i][:n + 2],
                    dep_slot=dep_l[b][i][:n])
                for i, n in enumerate(counts) if n > 0]).makespan_ns
        return makespans


__all__ = ["BatchEvaluator", "DEFAULT_MAX_CELLS", "OptimizerTimeout"]
