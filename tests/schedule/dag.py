"""Explicit phase DAG (Section 4.2) and its longest path: a test oracle.

The compiler uses the fast recurrence in :mod:`repro.schedule.pipeline`;
this module materialises the same precedence structure as a DAG — nodes are
execution phases and memory phases, edges are (a) same-core segment order,
(b) DMA round-robin order, (c) data constraints between memory and
execution phases — and computes the makespan as the weighted longest path.
The schedule tests assert both evaluators agree on every schedule.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import networkx as nx

from repro.prem.segments import CoreSchedule

EXEC = "exec"
MEM = "mem"
INIT = "init"


def build_phase_dag(cores: Sequence[CoreSchedule]) -> "nx.DiGraph":
    """The phase DAG: node weights are phase lengths in nanoseconds.

    Nodes are ``(kind, core, index)``: ``(INIT, i, 0)`` for initialisation
    segments, ``(EXEC, i, s)`` for execution phases and ``(MEM, i, s)`` for
    the combined memory phase in slot ``s``.  Zero-length memory phases are
    omitted (they occupy no DMA time).
    """
    graph = nx.DiGraph()
    active = [core for core in cores if core.n_segments > 0]

    for core in active:
        graph.add_node((INIT, core.core, 0), weight=core.init_api_ns)
        for segment in range(1, core.n_segments + 1):
            graph.add_node((EXEC, core.core, segment),
                           weight=core.exec_ns[segment - 1])
        for slot in range(1, core.n_segments + 3):
            if core.mem_slot_ns[slot - 1] > 0:
                graph.add_node((MEM, core.core, slot),
                               weight=core.mem_slot_ns[slot - 1])

    # (a) same-core order + init before first segment.
    for core in active:
        previous = (INIT, core.core, 0)
        for segment in range(1, core.n_segments + 1):
            node = (EXEC, core.core, segment)
            graph.add_edge(previous, node)
            previous = node

    # (b) single DMA, round-robin slot-major then core order.
    mem_nodes: List[Tuple[str, int, int]] = []
    max_slots = max(core.n_segments + 2 for core in active)
    for slot in range(1, max_slots + 1):
        for core in active:
            node = (MEM, core.core, slot)
            if graph.has_node(node):
                mem_nodes.append(node)
    for before, after in zip(mem_nodes, mem_nodes[1:]):
        graph.add_edge(before, after)

    # (c) data constraints.
    for core in active:
        for slot in range(1, core.n_segments + 3):
            node = (MEM, core.core, slot)
            if not graph.has_node(node):
                continue
            # The combined op reuses buffers freed by segment slot-2.
            gate = min(slot - 2, core.n_segments)
            if gate >= 1:
                graph.add_edge((EXEC, core.core, gate), node)
            else:
                graph.add_edge((INIT, core.core, 0), node)
        for segment in range(1, core.n_segments + 1):
            dep = core.dep_slot[segment - 1]
            if dep and graph.has_node((MEM, core.core, dep)):
                graph.add_edge((MEM, core.core, dep),
                               (EXEC, core.core, segment))
    return graph


def dag_makespan(cores: Sequence[CoreSchedule]) -> float:
    """Longest weighted path through the phase DAG."""
    active = [core for core in cores if core.n_segments > 0]
    if not active:
        return 0.0
    graph = build_phase_dag(cores)
    finish: Dict[Tuple[str, int, int], float] = {}
    for node in nx.topological_sort(graph):
        start = max(
            (finish[pred] for pred in graph.predecessors(node)), default=0.0)
        finish[node] = start + graph.nodes[node]["weight"]
    return max(finish.values(), default=0.0)
