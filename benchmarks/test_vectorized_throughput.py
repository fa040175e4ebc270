"""Vectorized batch evaluation benches: throughput and on/off parity.

Three properties of the numpy candidate-space engine (DESIGN.md §11):

- V1: batch-exact scoring of the cnn/LARGE screened top-512 must be
  bit-identical to the per-candidate simulator and at least 5x faster
  (candidates/sec), measured on one core for both arms.
- V2: the robust search on cnn/SMALL at 25 scenarios — the N×M product
  the vector engine exists for — must get measurably faster with
  vectorization on, with an identical winner and identical per-scenario
  makespans.
- V3: every affordable corpus component returns bit-identical winners
  with vectorization on vs off, for the pruned and the robust search.

All measurements merge into the top-level ``BENCH_optimizer.json`` under
the ``vectorized`` section (candidates/sec and throughput-per-core
columns), alongside the pruning benches' records.
"""

import json
import math
import struct
import time
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from repro.loopir import LoopTree
from repro.loopir.component import component_at
from repro.loopir.validity import is_chain_extendable
from repro.opt import (
    BatchEvaluator,
    PrunedOptimizer,
    RobustOptimizer,
    search_space_size,
)
from repro.opt.bounds import BoundCalculator
from repro.opt.exhaustive import assignment_candidates
from repro.opt.solution import Solution
from repro.opt.threadgroups import generate_nondominated_thread_groups
from repro.reporting import ExperimentReport
from repro.schedule.makespan import MakespanEvaluator
from repro.sim.profiler import fit_component_model
from repro.timing import Platform

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_optimizer.json"

#: Candidates scored in the throughput shoot-out.
TOP_N = 512

#: The acceptance bar: batch-exact scoring vs the per-candidate
#: simulator, same candidates, same (single) core.
MIN_SPEEDUP = 5.0

#: Scenario count of the robust wall-time comparison (the issue's bar).
ROBUST_SCENARIOS = 25

PARITY_PRESETS = (
    ("cnn", "SMALL"), ("lstm", "SMALL"), ("maxpool", "SMALL"),
    ("sumpool", "SMALL"), ("rnn", "SMALL"),
    ("lstm", "LARGE"), ("rnn", "LARGE"),
)


def _bits(value):
    return struct.pack("<d", float(value))


def _merge_bench_json(section, records):
    data = {}
    if BENCH_JSON.exists():
        try:
            data = json.loads(BENCH_JSON.read_text())
        except ValueError:
            data = {}
    data[section] = records
    BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _leaf_chains(tree):
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


@pytest.mark.benchmark(group="vectorized")
def test_v1_batch_throughput_cnn_large(bank, benchmark):
    """cnn/LARGE top-512: bit-identical scoring, >= 5x the throughput."""
    platform = Platform()
    tree = LoopTree.build(bank.kernel("cnn", "LARGE"))
    comp = component_at(tree, ["n", "k", "p", "q", "c"])
    model = fit_component_model(comp, bank.machine)
    vars_ = [node.var for node in comp.nodes]

    # Screen the whole 139k-point space with the vectorized quick bound
    # and keep the best-bound TOP_N — the candidates a real search pays
    # exact scoring for.
    bounds = BoundCalculator(comp, platform, model)
    screened = []
    screen_started = time.perf_counter()
    for assignment in generate_nondominated_thread_groups(
            platform.cores, comp):
        gmap, lists = assignment_candidates(comp, assignment)
        arr = bounds.quick_bound_array(lists, assignment)
        finite = np.flatnonzero(np.isfinite(arr))
        shape = tuple(len(lst) for lst in lists)
        multi = np.unravel_index(finite, shape)
        for t in range(len(finite)):
            sizes = tuple(lst[axis[t]]
                          for lst, axis in zip(lists, multi))
            screened.append((float(arr[finite[t]]), sizes, gmap))
    screen_s = time.perf_counter() - screen_started
    screened.sort(key=lambda entry: entry[0])
    top = screened[:TOP_N]
    solutions = [Solution(comp, dict(zip(vars_, sizes)), gmap)
                 for _, sizes, gmap in top]

    serial_ev = MakespanEvaluator(comp, platform, model)
    batch_ev = MakespanEvaluator(comp, platform, model)
    # Warm the component's shared geometry through refine, exactly the
    # wiring the pruned walk uses before exact scoring — so the
    # shoot-out measures scoring, not first-touch geometry construction.
    for quick, sizes, gmap in top:
        bounds.refine(quick, sizes, tuple(gmap[v] for v in vars_))

    def run():
        started = time.perf_counter()
        serial = [serial_ev.evaluate(s) for s in solutions]
        serial_s = time.perf_counter() - started
        batch = BatchEvaluator(batch_ev)
        started = time.perf_counter()
        batched = batch.evaluate_batch(solutions)
        batch_s = time.perf_counter() - started
        return serial, batched, batch, serial_s, batch_s

    serial, batched, batch, serial_s, batch_s = benchmark.pedantic(
        run, rounds=1, iterations=1)

    # Hard assertion, not a note: bit-identical results per candidate.
    for a, b in zip(serial, batched):
        assert _bits(a.makespan_ns) == _bits(b.makespan_ns), \
            a.solution.key()
        assert a.feasible == b.feasible and a.reason == b.reason
        assert a.transferred_bytes == b.transferred_bytes
        assert a.spm_bytes_needed == b.spm_bytes_needed
    assert batch.fallbacks == 0          # the corpus is fully exact

    n = len(solutions)
    serial_cps = n / serial_s
    batch_cps = n / batch_s
    speedup = serial_s / batch_s
    assert speedup >= MIN_SPEEDUP, \
        f"{speedup:.1f}x < {MIN_SPEEDUP}x ({serial_cps:.0f} vs " \
        f"{batch_cps:.0f} candidates/s)"

    report = ExperimentReport(
        "vectorized_throughput",
        "Batch-exact scoring vs the per-candidate simulator (cnn/LARGE)",
        ["arm", "candidates", "wall (s)", "candidates/s",
         "candidates/s/core"])
    # Both arms run on one core, so per-core throughput equals raw
    # throughput here; the column exists so engine-backed sweeps with
    # jobs > 1 merge comparable records.
    report.add_row("simulator", n, round(serial_s, 3),
                   round(serial_cps), round(serial_cps))
    report.add_row("batch", n, round(batch_s, 3),
                   round(batch_cps), round(batch_cps))
    report.add_note(f"speedup: {speedup:.1f}x; screen of "
                    f"{len(screened)} finite points took {screen_s:.2f}s; "
                    f"{batch.batches} tensor programs, "
                    f"{batch.fallbacks} fallbacks")
    report.emit()
    _merge_bench_json("vectorized", {
        "cnn/LARGE:n.k.p.q.c": {
            "candidates": n,
            "cores": 1,
            "serial_wall_s": round(serial_s, 4),
            "batch_wall_s": round(batch_s, 4),
            "serial_candidates_per_s": round(serial_cps, 1),
            "batch_candidates_per_s": round(batch_cps, 1),
            "serial_candidates_per_s_per_core": round(serial_cps, 1),
            "batch_candidates_per_s_per_core": round(batch_cps, 1),
            "speedup": round(speedup, 2),
            "screen_wall_s": round(screen_s, 4),
            "tensor_programs": batch.batches,
            "fallbacks": batch.fallbacks,
        }})


@pytest.mark.benchmark(group="vectorized")
def test_v2_robust_scenario_major_batches(bank, benchmark):
    """cnn/SMALL at 25 scenarios: same winner bits, less wall time."""
    platform = Platform()
    tree = LoopTree.build(bank.kernel("cnn", "SMALL"))
    comp = component_at(tree, ["n", "k", "p", "q", "c"])
    model = fit_component_model(comp, bank.machine)

    def run():
        started = time.perf_counter()
        off = RobustOptimizer(
            comp, platform, model, scenarios=ROBUST_SCENARIOS, seed=0,
            vectorize=False).optimize(8)
        off_s = time.perf_counter() - started
        started = time.perf_counter()
        on = RobustOptimizer(
            comp, platform, model, scenarios=ROBUST_SCENARIOS, seed=0,
            vectorize=True).optimize(8)
        on_s = time.perf_counter() - started
        return off, on, off_s, on_s

    off, on, off_s, on_s = benchmark.pedantic(run, rounds=1, iterations=1)

    assert on.feasible and off.feasible
    assert _bits(on.best.makespan_ns) == _bits(off.best.makespan_ns)
    assert on.best.solution.key() == off.best.solution.key()
    assert _bits(on.robust.risk_ns) == _bits(off.robust.risk_ns)
    assert tuple(map(_bits, on.robust.scenario_ns)) == \
        tuple(map(_bits, off.robust.scenario_ns))
    assert on.batched > 0 and on.batch_fallbacks == 0
    # "Drops measurably": the vectorized robust compile must be faster
    # outright — scenario-major batches are where the N×M product lives.
    assert on_s < off_s, f"vectorized {on_s:.2f}s vs serial {off_s:.2f}s"

    probes = on.scenario_probes
    report = ExperimentReport(
        "vectorized_robust_walltime",
        f"Robust compile at {ROBUST_SCENARIOS} scenarios (cnn/SMALL)",
        ["arm", "wall (s)", "scenario probes", "probes/s"])
    report.add_row("per-candidate", round(off_s, 3), off.scenario_probes,
                   round(off.scenario_probes / off_s))
    report.add_row("batched", round(on_s, 3), probes,
                   round(probes / on_s))
    report.add_note(f"wall-time ratio: {off_s / on_s:.2f}x; "
                    f"{on.batched} batch-decided candidates")
    report.emit()
    _merge_bench_json("vectorized_robust", {
        "cnn/SMALL:n.k.p.q.c": {
            "scenarios": ROBUST_SCENARIOS,
            "serial_wall_s": round(off_s, 4),
            "batch_wall_s": round(on_s, 4),
            "speedup": round(off_s / on_s, 2),
            "scenario_probes": probes,
            "batched": on.batched,
            "batch_fallbacks": on.batch_fallbacks,
        }})


@pytest.mark.benchmark(group="vectorized")
def test_v3_full_corpus_winner_parity(bank, benchmark):
    """Vectorization on vs off: identical winner bits, whole corpus."""
    platform = Platform()
    components = []
    for name, preset in PARITY_PRESETS:
        tree = LoopTree.build(bank.kernel(name, preset))
        for vars_ in _leaf_chains(tree):
            comp = component_at(tree, list(vars_))
            if search_space_size(comp, platform.cores) > 25_000:
                continue
            label = f"{name}/{preset}:{'.'.join(vars_)}"
            components.append(
                (label, comp, fit_component_model(comp, bank.machine)))

    def run():
        rows = []
        for label, comp, model in components:
            on = PrunedOptimizer(
                comp, platform, model, vectorize=True).optimize(8)
            off = PrunedOptimizer(
                comp, platform, model, vectorize=False).optimize(8)
            r_on = RobustOptimizer(
                comp, platform, model, scenarios=3, seed=0,
                vectorize=True).optimize(8)
            r_off = RobustOptimizer(
                comp, platform, model, scenarios=3, seed=0,
                vectorize=False).optimize(8)
            rows.append((label, on, off, r_on, r_off))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    records = {}
    for label, on, off, r_on, r_off in rows:
        assert on.feasible == off.feasible, label
        if on.feasible:
            assert _bits(on.best.makespan_ns) == \
                _bits(off.best.makespan_ns), label
            assert on.best.solution.key() == off.best.solution.key(), label
        assert r_on.feasible == r_off.feasible, label
        if r_on.feasible:
            assert _bits(r_on.best.makespan_ns) == \
                _bits(r_off.best.makespan_ns), label
            assert r_on.best.solution.key() == \
                r_off.best.solution.key(), label
            assert tuple(map(_bits, r_on.robust.scenario_ns)) == \
                tuple(map(_bits, r_off.robust.scenario_ns)), label
        records[label] = {
            "pruned_identical": True,
            "robust_identical": True,
            "batched": on.batched,
            "batch_fallbacks": on.batch_fallbacks,
        }
    assert sum(rec["batched"] for rec in records.values()) > 0
    _merge_bench_json("vectorized_parity", records)
