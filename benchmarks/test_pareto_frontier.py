"""Multi-objective frontier benches: exactness and the cost of the sweep.

Two properties of the Pareto search are measured (DESIGN.md §12):

- P1: on every corpus component whose candidate space the unpruned
  reference sweep can still afford (<= 20k points), `ParetoOptimizer`
  must emit the *bit-identical* front with and without the bound-vector
  dominance tier — pruning may only save evaluations, never front
  members — and the default scalarization winners are picked from
  that front.
- P2: the dominance tier must actually fire somewhere in the corpus,
  and the fastest front member must reproduce the single-objective
  (pruned-search) winner on every component.

The measurements land in the top-level ``BENCH_pareto.json`` so CI
archives front size, pruned fraction and wall time per kernel.
"""

import json
import time
from pathlib import Path

import pytest

from repro.loopir import LoopTree
from repro.loopir.component import component_at
from repro.loopir.validity import is_chain_extendable
from repro.opt import PrunedOptimizer, search_space_size
from repro.opt.pareto import (
    DEFAULT_WEIGHTS,
    ParetoOptimizer,
    dominates_vector,
    scalarize,
)
from repro.reporting import ExperimentReport, engine_note
from repro.sim.profiler import fit_component_model
from repro.timing import Platform

#: Where the machine-readable bench summary lands (repo top level).
BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_pareto.json"

#: The unpruned reference sweep stays affordable up to this space size.
REFERENCE_MAX_POINTS = 20_000

KERNEL_PRESETS = (
    ("cnn", "MINI"), ("maxpool", "MINI"),
    ("cnn", "SMALL"), ("lstm", "SMALL"), ("maxpool", "SMALL"),
    ("rnn", "SMALL"), ("sumpool", "SMALL"),
)


def _leaf_chains(tree):
    """Maximal perfectly-nested chains, as Algorithm 2 extracts them."""
    chains = []

    def walk(node, chain):
        chain = chain + [node]
        if not node.children:
            chains.append(tuple(n.var for n in chain))
            return
        if is_chain_extendable(node.loop) and len(node.children) == 1:
            walk(node.children[0], chain)
            return
        for child in node.children:
            walk(child, [])

    for root in tree.roots:
        walk(root, [])
    return chains


def _merge_bench_json(section, records):
    data = {}
    if BENCH_JSON.exists():
        try:
            data = json.loads(BENCH_JSON.read_text())
        except ValueError:
            data = {}
    data[section] = records
    BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _front_key(result):
    return tuple((p.objectives, p.flat) for p in result.front)


@pytest.fixture(scope="module")
def frontier_components(bank):
    """Every corpus component the unpruned reference can still afford."""
    platform = Platform()
    out = []
    for name, preset in KERNEL_PRESETS:
        tree = LoopTree.build(bank.kernel(name, preset))
        for vars_ in _leaf_chains(tree):
            comp = component_at(tree, list(vars_))
            size = search_space_size(comp, platform.cores)
            if size > REFERENCE_MAX_POINTS:
                continue
            label = f"{name}/{preset}:{'.'.join(vars_)}"
            out.append((label, comp,
                        fit_component_model(comp, bank.machine), size))
    return out


@pytest.mark.benchmark(group="pareto")
def test_p1_front_exactness_and_cost(frontier_components, benchmark):
    platform = Platform()
    report = ExperimentReport(
        "pareto_frontier",
        "Exact multi-objective fronts: dominance pruning never drops "
        "a member",
        ["component", "space", "front", "scored", "dominance pruned",
         "pruned %", "wall (s)"])

    def run():
        rows = []
        for label, comp, model, size in frontier_components:
            optimizer = ParetoOptimizer(comp, platform, model)
            started = time.perf_counter()
            result = optimizer.optimize(8)
            wall_s = time.perf_counter() - started
            reference = ParetoOptimizer(
                comp, platform, model, prune=False).optimize(8)
            single = PrunedOptimizer(comp, platform, model).optimize(8)
            rows.append((label, size, result, reference, single, wall_s))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    records = {}
    for label, size, result, reference, single, wall_s in rows:
        # The acceptance bar: pruning never drops a front member.
        assert _front_key(result) == _front_key(reference), label
        vectors = [p.objectives for p in result.front]
        for i, mine in enumerate(vectors):
            for j, other in enumerate(vectors):
                assert i == j or not dominates_vector(mine, other), label
        scalarized = [scalarize(result.front, weights)
                      for weights in DEFAULT_WEIGHTS] if result.front else []
        # The fastest front member IS the single-objective winner.
        if single.best is not None and single.best.feasible:
            assert result.front[0].makespan_ns == \
                single.best.makespan_ns, label
            assert result.front[0].solution.key() == \
                single.best.solution.key(), label
        else:
            assert result.front == (), label

        report.add_row(
            label, size, result.front_size, result.scored,
            result.dominance_pruned,
            round(100 * result.pruned_fraction, 1), round(wall_s, 3))
        records[label] = {
            "space": size,
            "front_size": result.front_size,
            "scored": result.scored,
            "pruned": result.pruned,
            "dominance_pruned": result.dominance_pruned,
            "pruned_fraction": round(result.pruned_fraction, 4),
            "scalarized": len(scalarized),
            "wall_s": round(wall_s, 4),
            "best_makespan_ns": result.front[0].makespan_ns
            if result.front else None,
        }
        report.add_note(f"{label}: {engine_note(result.metrics)}")
    report.emit()
    _merge_bench_json("frontier", records)

    # P2: the dominance tier fires somewhere in the corpus — a sweep
    # where no candidate is ever dominance-pruned measures nothing.
    assert sum(row[2].dominance_pruned for row in rows) > 0, \
        "bound-vector dominance pruning never fired"
    # And at least one component exposes a real trade-off surface.
    assert max(row[2].front_size for row in rows) > 1
