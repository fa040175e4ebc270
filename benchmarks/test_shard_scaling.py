"""Static-shard bench: three shard slices, then a warm reduce.

S1 measures the sharded compile the CLI ships (DESIGN.md §13):
``compile --shard I/3`` three times against one shared cache directory,
then ``shard-reduce`` — one unsharded pruned search over the warm cache.
On every corpus component whose candidate space the exhaustive search
can still afford (<= 20k points) the reduce must recover the
*bit-identical* winner of the serial `PrunedOptimizer` — same makespan,
same solution key — with zero fresh evaluations.  Both are hard
assertions on every component.

Every arm runs the per-candidate walk (``vectorize=False``).  That walk
adopts each cache hit before it screens the next candidate, so the
reduce prunes every candidate some shard pruned against a true feasible
rank; zero fresh evaluations is then guaranteed, not just observed.

The bench merges its measurements into the top-level
``BENCH_shard.json`` so CI archives per-shard wall clock, the
scored/pruned split, reduce time and the parity verdicts.
"""

import json
import time
from pathlib import Path

import pytest

from repro.loopir import LoopTree
from repro.loopir.component import component_at
from repro.loopir.validity import is_chain_extendable
from repro.opt import (
    PersistentCache,
    PrunedOptimizer,
    StaticShardExchange,
    search_space_size,
)
from repro.reporting import ExperimentReport
from repro.sim.profiler import fit_component_model
from repro.timing import Platform

#: Where the machine-readable bench summary lands (repo top level).
BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_shard.json"

#: Parity sweep cap: same affordability bar as the pruning benches.
EXHAUSTIVE_MAX_POINTS = 20_000

#: Static shards per component, as in the CI ``shard-parity`` job.
SHARDS = 3

KERNEL_PRESETS = (
    ("cnn", "SMALL"), ("lstm", "SMALL"), ("maxpool", "SMALL"),
    ("sumpool", "SMALL"), ("rnn", "SMALL"),
    ("lstm", "LARGE"), ("rnn", "LARGE"),
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


def _winner(result):
    if result.best is None or not result.best.feasible:
        return None
    return result.best.makespan_ns, result.best.solution.key()


@pytest.fixture(scope="module")
def parity_components(bank):
    """Every corpus component the exhaustive search can still afford."""
    platform = Platform()
    out = []
    for name, preset in KERNEL_PRESETS:
        tree = LoopTree.build(bank.kernel(name, preset))
        for vars_ in _leaf_chains(tree):
            comp = component_at(tree, list(vars_))
            size = search_space_size(comp, platform.cores)
            if size > EXHAUSTIVE_MAX_POINTS:
                continue
            label = f"{name}/{preset}:{'.'.join(vars_)}"
            out.append((label, comp,
                        fit_component_model(comp, bank.machine), size))
    return out


def _shard(comp, platform, model, directory, index):
    """One ``compile --shard`` worker on one component."""
    optimizer = PrunedOptimizer(
        comp, platform, model, cache=PersistentCache(directory),
        vectorize=False, shard_of=(index, SHARDS))
    exchange = StaticShardExchange(
        directory, optimizer.evaluator.context_hash, (index, SHARDS))
    optimizer.incumbent = exchange.seed()
    started = time.perf_counter()
    result = optimizer.optimize(8)
    wall_s = time.perf_counter() - started
    exchange.publish(comp, result)
    return result, wall_s


@pytest.mark.benchmark(group="shard")
def test_s1_reduce_parity(parity_components, benchmark, tmp_path):
    platform = Platform()
    report = ExperimentReport(
        "shard_reduce_parity",
        f"{SHARDS} static shards + warm reduce vs serial pruned search",
        ["component", "space", "evaluations", "pruned",
         "reduce evals", "reduce (s)", "makespan (ns)"])

    def run():
        rows = []
        for position, (label, comp, model, size) in enumerate(
                parity_components):
            serial = PrunedOptimizer(
                comp, platform, model, vectorize=False).optimize(8)
            directory = tmp_path / f"space{position}"
            shards = [_shard(comp, platform, model, directory, index)
                      for index in range(SHARDS)]
            started = time.perf_counter()
            reduced = PrunedOptimizer(
                comp, platform, model, cache=PersistentCache(directory),
                vectorize=False).optimize(8)
            reduce_s = time.perf_counter() - started
            rows.append((label, size, serial, shards, reduced, reduce_s))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    records = {}
    for label, size, serial, shards, reduced, reduce_s in rows:
        # Winner identity, bit for bit, from cache entries alone.
        assert _winner(reduced) == _winner(serial), label
        assert reduced.evaluations == 0, label
        evaluations = sum(result.evaluations for result, _ in shards)
        pruned = sum(result.pruned for result, _ in shards)
        report.add_row(
            label, size, evaluations, pruned, reduced.evaluations,
            round(reduce_s, 4),
            round(reduced.makespan_ns) if reduced.feasible else "inf")
        records[label] = {
            "space": size,
            "shards": SHARDS,
            "shard_evaluations": [r.evaluations for r, _ in shards],
            "shard_pruned": [r.pruned for r, _ in shards],
            "shard_wall_s": [round(wall_s, 4) for _, wall_s in shards],
            "serial_evaluations": serial.evaluations,
            "reduce_evaluations": reduced.evaluations,
            "reduce_cache_hits": reduced.cache_hits,
            "reduce_s": round(reduce_s, 4),
            "makespan_ns": reduced.makespan_ns if reduced.feasible
            else None,
            "winner_parity": True,      # the asserts above are hard
        }
    report.emit()
    _merge_bench_json("parity", records)
