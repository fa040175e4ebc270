"""PREM-C code generation (Chapter 5, Listing 3.3 style).

Emits the transformed C source for a tiled component: parameter tables for
the swap calls, buffer pointers sized by the bounding boxes, the
``BUFFER_ALLOC_APIS`` block (allocation, initial swaps, ``dispatch``), the
thread-partitioned tiled loops with the ``DATA_SWAP_APIS`` block expanded
(constant-change-stride conditionals or bit-vector fallback, buffer pointer
rebinding, ``seg_count`` maintenance), the element loops with
buffer-relative subscripts, and the trailing ``BUFFER_DEALLOC_APIS`` block.

Statement bodies are emitted as ``STMT_<NAME>(write, reads...)`` macro
invocations over the rebased accesses: the numeric kernels of the IR carry
no C expression text, so the generated file declares one object-like macro
per statement that the user (or the test-suite's reference expansion)
fills in.  Everything scheduling-related — which swap happens where, with
which parameters — is fully concrete.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..loopir.ast import Loop, Stmt
from ..loopir.component import TilableComponent
from ..opt.solution import Solution
from ..poly.access import Access
from ..poly.affine import AffineExpr
from ..poly.constraint import EQ
from .macros import ArraySwapSchedule, MacroBuilder
from .ranges import partial_bounds
from .segments import RO, RW, WO


class CodeGenerator:
    """Generates PREM-compliant C for one component and solution."""

    def __init__(self, component: TilableComponent, solution: Solution):
        self.component = component
        self.solution = solution
        self.builder = MacroBuilder(component, solution)
        self.modes = self.builder.modes
        self.schedules: List[Dict[str, ArraySwapSchedule]] = [
            self.builder.core_schedules(core)
            for core in range(solution.threads)
        ]
        self._seg_count = "_".join(component.band_vars) + "_seg_count"

    # -- public ------------------------------------------------------------

    def generate(self) -> str:
        lines: List[str] = []
        lines.append(f"/* PREM-compliant code for component "
                     f"{self.component.label()} */")
        lines.append(f"/* solution: {self.solution.describe()} */")
        lines.append(f"static int {self._seg_count} = 0;")
        lines.append("")
        lines.extend(self._stmt_macros())
        lines.append("")
        lines.extend(self._param_tables())
        lines.append("")
        lines.extend(self._buffer_alloc_apis())
        lines.append("")
        lines.extend(self._tiled_loops())
        lines.append("")
        lines.extend(self._buffer_dealloc_apis())
        return "\n".join(lines)

    # -- BUFFER_DEALLOC_APIS -------------------------------------------------

    def _buffer_dealloc_apis(self) -> List[str]:
        """Final deallocations and the trailing end_segment call."""
        lines = ["/* BUFFER_DEALLOC_APIS */"]
        for name in self.component.arrays():
            schedule = self.schedules[0][name]
            for segment, buffer in schedule.dealloc_segments():
                if segment >= schedule.n_segments:
                    lines.append(f"deallocate({name.upper()}{buffer});")
        lines.append("end_segment();")
        return lines

    # -- statement macros ---------------------------------------------------

    def _stmt_macros(self) -> List[str]:
        lines = ["/* one macro per statement body; supply the arithmetic */"]
        for stmt in self.component.stmts():
            args = ", ".join(
                f"a{i}" for i in range(len(stmt.accesses)))
            lines.append(
                f"#define STMT_{stmt.name.upper()}({args}) /* flops="
                f"{stmt.flops} */")
        return lines

    # -- parameter tables (Table 3.2) ------------------------------------------

    def _param_tables(self) -> List[str]:
        lines = ["/* swap-call parameter tables, one row per thread */"]
        threads = self.solution.threads
        for name in self.component.arrays():
            max_events = max(
                len(self.schedules[c][name].events) for c in range(threads))
            if max_events == 0:
                continue
            rows = []
            for core in range(threads):
                entries = []
                for event in self.schedules[core][name].events:
                    call = event.call
                    size = ", ".join(str(v) for v in call.size)
                    offset = call.offset_elements
                    entries.append(
                        f"{{ .offset = {offset!r}, .size = {{{size}}} }}")
                rows.append("  { " + ", ".join(entries) + " }")
            lines.append(
                f"static const struct swap_param {name}_swap_params"
                f"[{threads}][{max_events}] = {{")
            lines.extend(row + "," for row in rows)
            lines.append("};")
        return lines

    # -- BUFFER_ALLOC_APIS -------------------------------------------------------

    def _buffer_alloc_apis(self) -> List[str]:
        lines = ["/* BUFFER_ALLOC_APIS */"]
        for name, plan_shape in self.builder.bounding_shapes.items():
            array = self.component.arrays()[name]
            mode = self.modes[name]
            decl = self._buffer_decl(name, array.etype, plan_shape)
            lines.extend(decl)
            for buffer in (1, 2):
                lines.append(
                    f"int {name.upper()}{buffer} = "
                    f"allocate_buffer({name}_buf{buffer}, {mode});")
        lines.append("/* initial swaps: data for the first segment */")
        lines.extend(self._initial_swaps(before_dispatch=True))
        lines.append("dispatch();")
        lines.append("/* data for the second swap segment */")
        lines.extend(self._initial_swaps(before_dispatch=False))
        lines.append("end_segment();")
        return lines

    def _buffer_decl(self, name: str, etype: str,
                     shape: Sequence[int]) -> List[str]:
        if len(shape) == 1:
            return [f"{etype} *{name}_buf1 = /* spm */;",
                    f"{etype} *{name}_buf2 = /* spm */;"]
        dims = "".join(f"[{extent}]" for extent in shape[1:])
        return [f"{etype} (*{name}_buf1){dims} = /* spm */;",
                f"{etype} (*{name}_buf2){dims} = /* spm */;"]

    def _initial_swaps(self, before_dispatch: bool) -> List[str]:
        lines = []
        index = 1 if before_dispatch else 2
        for name in self.component.arrays():
            schedule = self.schedules[0][name]
            if len(schedule.events) < index:
                continue
            event = schedule.events[index - 1]
            buffer_id = f"{name}_buf{event.buffer}"
            lines.append(self._indexed_swap(name, schedule, index,
                                            buffer_id))
        return lines

    def _indexed_swap(self, name: str, schedule: ArraySwapSchedule,
                      index: int, buffer_id: str,
                      index_expr: Optional[str] = None) -> str:
        """A swap call reading its parameters from the table."""
        event = schedule.events[index - 1]
        param = index_expr if index_expr is not None else str(index - 1)
        table = f"{name}_swap_params[threadID()][{param}]"
        api = event.call.api
        if api == "swap_buffer":
            return (f"swap_buffer({buffer_id}, {table}.offset, "
                    f"{table}.size[0]);")
        if api == "swap2d_buffer":
            return (f"swap2d_buffer({buffer_id}, {table}.offset, "
                    f"{table}.size[1], {table}.size[0], "
                    f"{event.call.spitch[0]}, {event.call.dpitch[0]});")
        return (f"swapnd_buffer({buffer_id}, {table}.offset, "
                f"{event.call.ndim}, {table}.size, "
                f"(int[]){{{', '.join(map(str, event.call.spitch))}}}, "
                f"(int[]){{{', '.join(map(str, event.call.dpitch))}}});")

    # -- tiled + element loops ---------------------------------------------------

    def _tiled_loops(self) -> List[str]:
        lines: List[str] = []
        indent = ""
        suffix_product = self.solution.threads
        for node, level in zip(self.component.nodes, self.solution.levels):
            var_t = f"{node.var}_t"
            if level.R > 1:
                suffix_product //= level.R
                group = (f"threadID() % {suffix_product * level.R} / "
                         f"{suffix_product}"
                         if suffix_product > 1
                         else f"threadID() % {level.R}")
                lines.append(
                    f"{indent}for (int {var_t} = ({group}) * {level.Z}; "
                    f"{var_t} < MIN(({group}) * {level.Z} + {level.Z}, "
                    f"{level.M}); {var_t} += 1) {{")
            else:
                lines.append(
                    f"{indent}for (int {var_t} = 0; {var_t} < {level.M}; "
                    f"{var_t} += 1) {{")
            indent += "  "
        lines.extend(indent + text for text in self._data_swap_apis())
        lines.extend(self._element_loops(indent))
        for _ in self.component.nodes:
            indent = indent[:-2]
            lines.append(indent + "}")
        return lines

    def _data_swap_apis(self) -> List[str]:
        lines = ["/* DATA_SWAP_APIS */"]
        seg = self._seg_count
        for name in self.component.arrays():
            schedule = self.schedules[0][name]
            events = schedule.events
            m = len(events)
            if m == 0:
                continue
            lines.extend(self._pointer_rebind(name, schedule))
            stride = schedule.change_stride
            if m > 2 and stride is not None:
                limit = stride * (m - 1)
                for parity, buffer in ((1, 1), (0, 2)):
                    lines.append(
                        f"if ({seg} % {stride} == 0 && {seg} < {limit} && "
                        f"({seg} / {stride}) % 2 == {parity}) {{")
                    lines.append("  " + self._indexed_swap(
                        name, schedule, 3, f"{name}_buf{buffer}",
                        index_expr=f"{seg} / {stride} + 1"))
                    lines.append("}")
            elif m > 2:
                bits = schedule.swap_bitvector
                lines.append(
                    f"/* non-constant change stride: bit vector "
                    f"0b{bits:b} */")
                for event in events[2:]:
                    issue = schedule.issue_segment(event.index)
                    lines.append(f"if ({seg} == {issue}) {{")
                    lines.append("  " + self._indexed_swap(
                        name, schedule, event.index,
                        f"{name}_buf{event.buffer}"))
                    lines.append("}")
            for segment, buffer in schedule.dealloc_segments():
                if segment >= schedule.n_segments:
                    continue   # handled by BUFFER_DEALLOC_APIS
                lines.append(f"if ({seg} == {segment - 1}) {{")
                lines.append(f"  deallocate({name.upper()}{buffer});")
                lines.append("}")
        lines.append(f"{seg}++;")
        lines.append("end_segment();")
        return lines

    def _pointer_rebind(self, name: str,
                        schedule: ArraySwapSchedule) -> List[str]:
        stride = schedule.change_stride
        seg = self._seg_count
        if len(schedule.events) <= 1:
            return [f"{name} = {name}_buf1;"]
        if stride is None:
            lines = []
            for event in schedule.events:
                lines.append(
                    f"if ({seg} == {event.segment - 1}) "
                    f"{name} = {name}_buf{event.buffer};")
            return lines
        return [
            f"if (({seg} / {stride}) % 2 == 0) {{ {name} = {name}_buf1; }}"
            f" else {{ {name} = {name}_buf2; }}"
        ]

    def _element_loops(self, indent: str) -> List[str]:
        lines: List[str] = []
        for node, level in zip(self.component.nodes, self.solution.levels):
            var = node.var
            var_t = f"{var}_t"
            step = level.K * node.S
            begin = node.begin
            start = f"{begin} + {var_t} * {step}" if begin else \
                f"{var_t} * {step}"
            end_val = begin + node.N * node.S
            lines.append(
                f"{indent}for (int {var} = {start}; "
                f"{var} < MIN({end_val}, {start} + {step}); "
                f"{var} += {node.S}) {{")
            indent += "  "
        lines.extend(self._body(self.component.nodes[-1].loop.body, indent))
        for _ in self.component.nodes:
            indent = indent[:-2]
            lines.append(indent + "}")
        return lines

    def _body(self, body: Sequence, indent: str) -> List[str]:
        lines: List[str] = []
        for child in body:
            if isinstance(child, Loop):
                last = child.begin + child.n * child.stride
                lines.append(
                    f"{indent}for (int {child.var} = {child.begin}; "
                    f"{child.var} < {last}; {child.var} += {child.stride}) "
                    f"{{")
                lines.extend(self._body(child.body, indent + "  "))
                lines.append(indent + "}")
            else:
                lines.extend(self._stmt_line(child, indent))
        return lines

    def _stmt_line(self, stmt: Stmt, indent: str) -> List[str]:
        lines = []
        close = False
        if stmt.guards:
            conds = " && ".join(self._guard_c(g) for g in stmt.guards)
            lines.append(f"{indent}if ({conds}) {{")
            indent += "  "
            close = True
        refs = ", ".join(self._rebased_ref(a) for a in stmt.accesses)
        lines.append(f"{indent}STMT_{stmt.name.upper()}({refs});")
        if close:
            indent = indent[:-2]
            lines.append(indent + "}")
        return lines

    def _guard_c(self, guard) -> str:
        op = "==" if guard.kind == EQ else ">="
        return f"{guard.expr!r} {op} 0"

    def _rebased_ref(self, access: Access) -> str:
        """Array reference with subscripts rebased to the SPM buffer.

        The buffer holds the tile's canonical range, whose per-dimension
        start is affine in the tile-index variables; the rebased subscript
        is the original expression minus that start (Listing 3.3's
        ``i[s1_0 - s1_0_t * 109]`` pattern).
        """
        name = access.array.name
        lows = self._symbolic_range_low(name)
        parts = []
        for expr, low in zip(access.indices, lows):
            rebased = expr - low
            parts.append(f"[{rebased!r}]")
        return f"{name}{''.join(parts)}"

    def _symbolic_range_low(self, name: str) -> Tuple[AffineExpr, ...]:
        """Canonical-range start per dimension, symbolic in tile indices."""
        substitution = {}
        box: Dict[str, Tuple[int, int]] = dict(
            self.component.full_inner_box())
        for node, level in zip(self.component.nodes, self.solution.levels):
            residual = f"__{node.var}_r"
            substitution[node.var] = (
                AffineExpr({f"{node.var}_t": level.K * node.S})
                + AffineExpr.var(residual) + node.begin)
            box[residual] = (0, (level.K - 1) * node.S)

        lows: List[AffineExpr] = []
        pairs = self.component.accesses(name)
        ndim = pairs[0][1].array.ndim
        for dim in range(ndim):
            best: Optional[AffineExpr] = None
            for _, access in pairs:
                expr = access.indices[dim].substitute(substitution)
                lo, _ = partial_bounds(expr, box)
                if best is None:
                    best = lo
                elif best.same_coeffs(lo):
                    if lo.constant < best.constant:
                        best = lo
                else:
                    best = AffineExpr.const(0)
            lows.append(best if best is not None else AffineExpr.const(0))
        return tuple(lows)
