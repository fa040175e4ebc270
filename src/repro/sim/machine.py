"""Architectural timing model — the gem5 substitute.

The paper measures execution-phase lengths by running tiles on gem5's ARM
``AtomicSimpleCPU`` and dumping statistics per segment.  This module plays
that role: :class:`MachineModel` is a deterministic in-order cost model
that "executes" one tile of a tilable component and returns a cycle count.

Its cost structure is deliberately *richer* than the analytic model of
Section 4.2 that gets fitted against it (per-loop entry costs, guard
evaluation, per-tile warm-up), so the constrained least-squares fit in
:mod:`repro.timing.execmodel` is a genuine approximation — mirroring the
relationship between gem5 measurements and the paper's parametric model.

For small kernels, :meth:`MachineModel.interpret_tile` also walks every
iteration point individually; the closed-form path is validated against it
in the test-suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from ..errors import TileConfigError
from ..loopir.ast import Loop, Stmt
from ..loopir.component import TilableComponent
from ..poly.constraint import EQ


@dataclass(frozen=True)
class CostTable:
    """Per-operation cycle costs of the modelled in-order core."""

    flop: int = 4            # one arithmetic operation
    load: int = 6            # SPM read
    store: int = 6           # SPM write
    loop_iter: int = 3       # compare + increment + branch per iteration
    loop_entry: int = 8      # loop setup (bound computation, spill)
    guard_eval: int = 2      # conditional evaluation per visit
    stmt_dispatch: int = 1   # address generation / bookkeeping
    tile_warmup: int = 120   # per-segment pipeline/stack warm-up


class MachineModel:
    """Closed-form tile execution cost with an interpretive cross-check."""

    def __init__(self, costs: CostTable | None = None):
        self.costs = costs or CostTable()

    # -- closed form -----------------------------------------------------

    def tile_cost(self, component: TilableComponent,
                  widths: Sequence[int]) -> int:
        """Cycles to execute one tile whose band levels have *widths*.

        Band loops contribute entry and per-iteration overhead; the body of
        the innermost band level (statements and folded loops) runs once
        per band point.
        """
        if len(widths) != component.depth:
            raise TileConfigError(
                f"expected {component.depth} widths, got {len(widths)}")
        if any(w <= 0 for w in widths):
            raise TileConfigError(
                f"tile widths must be positive, got {tuple(widths)}")

        total = self.costs.tile_warmup
        prefix = 1
        for width in widths:
            # Each entry to the loop at this level happens once per
            # iteration of the enclosing levels.
            total += prefix * self.costs.loop_entry
            prefix *= width
            total += prefix * self.costs.loop_iter

        band_widths = dict(zip(component.band_vars, widths))
        per_point = self._sequence_cost(
            component.nodes[-1].loop.body, band_widths)
        total += prefix * per_point
        return total

    def _sequence_cost(self, body, band_widths: Mapping[str, int]) -> int:
        total = 0
        for child in body:
            if isinstance(child, Loop):
                inner = self._sequence_cost(child.body, band_widths)
                total += self.costs.loop_entry
                total += child.n * (self.costs.loop_iter + inner)
            else:
                total += self._stmt_cost(child, band_widths)
        return total

    def _stmt_cost(self, stmt: Stmt, band_widths: Mapping[str, int]) -> int:
        """Expected cost of one visit to the statement's position.

        Guarded statements pay guard evaluation on every visit but their
        body only on the fraction of visits where the guard holds; for the
        corpus's single-iterator guards the fraction is computed from the
        guarded variable's width inside the tile (e.g. ``p == 0`` holds on
        one of ``w_p`` visits when the tile contains p = 0).
        """
        body = (stmt.flops * self.costs.flop
                + len(stmt.reads()) * self.costs.load
                + len(stmt.writes()) * self.costs.store
                + self.costs.stmt_dispatch)
        if not stmt.guards:
            return body
        cost = len(stmt.guards) * self.costs.guard_eval
        fraction_num, fraction_den = 1, 1
        for guard in stmt.guards:
            variables = sorted(guard.variables())
            if len(variables) == 1 and variables[0] in band_widths and \
                    guard.kind == EQ:
                # Holds for exactly one value of the guarded iterator;
                # whether the tile contains it is position dependent, so we
                # charge the average (one hit per full sweep of the level).
                fraction_den *= band_widths[variables[0]]
        return cost + (body * fraction_num + fraction_den - 1) // fraction_den

    # -- whole-kernel cost (ideal single-core baseline) --------------------

    def kernel_cost(self, kernel) -> int:
        """Cycles to run the untransformed kernel once on one core.

        This is the execution-time side of the paper's *ideal* baseline
        (Figure 6.1's normalisation): no tiling, unlimited local memory,
        zero-cost transfers.  Loop and statement execution counts honour
        the guards exactly (``l.I`` semantics).
        """
        from ..loopir.validity import count_guarded_executions

        total = 0
        for loop, ancestors in kernel.walk_loops():
            executions = count_guarded_executions(loop, ancestors)
            total += executions * (
                self.costs.loop_entry + loop.n * self.costs.loop_iter)
        for stmt, loops in kernel.walk_stmts():
            visits = self._stmt_visits(kernel, stmt, loops)
            instances = self._stmt_instances(kernel, stmt, loops)
            if stmt.guards:
                total += visits * len(stmt.guards) * self.costs.guard_eval
            total += instances * (
                stmt.flops * self.costs.flop
                + len(stmt.reads()) * self.costs.load
                + len(stmt.writes()) * self.costs.store
                + self.costs.stmt_dispatch)
        return total

    def _stmt_visits(self, kernel, stmt, loops) -> int:
        """Times the statement's position is reached (loop guards only)."""
        from ..loopir.validity import count_guarded_executions
        if not loops:
            return 1
        innermost = loops[-1]
        ancestors = loops[:-1]
        return count_guarded_executions(innermost, ancestors) * innermost.n

    def _stmt_instances(self, kernel, stmt, loops) -> int:
        """Times the statement actually executes (all guards)."""
        from ..loopir.ast import Loop
        from ..loopir.validity import count_guarded_executions
        if not loops:
            return 1
        # Treat the statement as a zero-trip pseudo-loop guarded by the
        # statement's own guards: count the guarded ancestor combinations.
        pseudo = Loop(var="@stmt", n=1, body=[], guards=list(stmt.guards))
        return count_guarded_executions(pseudo, tuple(loops))

    # -- interpretive cross-check -------------------------------------------

    def interpret_tile(self, component: TilableComponent,
                       box: Mapping[str, Tuple[int, int]]) -> int:
        """Walk every iteration point of a concrete tile box (tests only)."""
        total = self.costs.tile_warmup
        order = list(component.band_vars)
        total += self._interpret_loops(
            component, order, 0, {}, dict(box))
        return total

    def _interpret_loops(self, component, order, depth, point, box) -> int:
        if depth == len(order):
            return self._interpret_body(
                component.nodes[-1].loop.body, point, box)
        var = order[depth]
        lo, hi = box[var]
        node = component.nodes[depth]
        total = self.costs.loop_entry
        for value in range(lo, hi + 1, node.S):
            point[var] = value
            total += self.costs.loop_iter
            total += self._interpret_loops(
                component, order, depth + 1, point, box)
        del point[var]
        return total

    def _interpret_body(self, body, point, box) -> int:
        total = 0
        for child in body:
            if isinstance(child, Loop):
                total += self.costs.loop_entry
                for value in child.loop_range.values():
                    point[child.var] = value
                    total += self.costs.loop_iter
                    total += self._interpret_body(child.body, point, box)
                del point[child.var]
            else:
                total += self._interpret_stmt(child, point)
        return total

    def _interpret_stmt(self, stmt: Stmt, point) -> int:
        total = 0
        if stmt.guards:
            total += len(stmt.guards) * self.costs.guard_eval
            if not all(g.satisfied(point) for g in stmt.guards):
                return total
        total += (stmt.flops * self.costs.flop
                  + len(stmt.reads()) * self.costs.load
                  + len(stmt.writes()) * self.costs.store
                  + self.costs.stmt_dispatch)
        return total
