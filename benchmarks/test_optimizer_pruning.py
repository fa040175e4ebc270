"""Bound-driven search benches: pruning parity and the opened-up space.

Two properties of the branch-and-bound optimizer are measured
(DESIGN.md section 8):

- B1: on every corpus component whose candidate space the exhaustive
  search can still afford (<= 20k points), `PrunedOptimizer` must return
  the *bit-identical* winner while constructing at least 3x fewer fresh
  `SegmentPlanner` plans on the largest such space.  Winner identity is
  a hard assertion on every component, not just the largest.
- B2: a candidate space the exhaustive guard refuses outright (the deep
  CNN component, ~139k points against the 20k `max_points` default)
  must complete under the pruned path within the default robust-stage
  budget of 10 s.

Both benches merge their measurements into the top-level
``BENCH_optimizer.json`` so CI archives evaluations, pruned counts,
fresh plans, wall time and the chosen makespan per component.
"""

import json
import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest

from repro.loopir import LoopTree
from repro.loopir.component import component_at
from repro.loopir.validity import is_chain_extendable
from repro.opt import (
    ExhaustiveOptimizer,
    PersistentCache,
    PrunedOptimizer,
    SearchSpaceTooLarge,
    search_space_size,
)
from repro.prem.segments import SegmentPlanner
from repro.reporting import ExperimentReport, engine_note
from repro.schedule.makespan import Deadline
from repro.sim.profiler import fit_component_model
from repro.timing import Platform

#: Where the machine-readable bench summary lands (repo top level).
BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_optimizer.json"

#: The exhaustive default the parity sweep respects and B2 exceeds.
EXHAUSTIVE_MAX_POINTS = 20_000

#: The default robust-stage budget the large search must fit in.
STAGE_BUDGET_S = 10.0

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


def _counting_plans():
    """Patch context counting fresh SegmentPlanner.plan constructions."""
    counter = {"plans": 0}
    original = SegmentPlanner.plan

    def counting(self, *args, **kwargs):
        counter["plans"] += 1
        return original(self, *args, **kwargs)

    return mock.patch.object(SegmentPlanner, "plan", counting), counter


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


@pytest.mark.benchmark(group="pruning")
def test_b1_pruning_parity(parity_components, benchmark):
    platform = Platform()
    report = ExperimentReport(
        "optimizer_pruning_parity",
        "Bound-driven search vs exhaustive: identical winner, fewer plans",
        ["component", "space", "exhaustive plans", "pruned plans",
         "plan ratio", "pruned", "makespan (ns)"])

    def run():
        rows = []
        for label, comp, model, size in parity_components:
            # Both arms run unvectorized: the plan-count ratio measures
            # what *bounds* avoid, and the batch engine would zero out
            # the pruned arm's plans for an unrelated reason.
            patch, counter = _counting_plans()
            with patch:
                exhaustive = ExhaustiveOptimizer(
                    comp, platform, model, max_points=10**9).optimize(8)
                exhaustive_plans = counter["plans"]
                counter["plans"] = 0
                optimizer = PrunedOptimizer(
                    comp, platform, model, vectorize=False)
                started = time.perf_counter()
                pruned = optimizer.optimize(8)
                wall_s = time.perf_counter() - started
                pruned_plans = counter["plans"]
            # Warm phase: re-run against the persisted entries so the
            # cache's bound-only tier is actually exercised — a warm
            # prune of a persisted candidate is a *bound hit*.
            with tempfile.TemporaryDirectory() as directory:
                seed_cache = PersistentCache(directory)
                PrunedOptimizer(comp, platform, model, cache=seed_cache,
                                vectorize=False).optimize(8)
                bound_entries = seed_cache.stats()["bound_entries"]
                warm = PrunedOptimizer(
                    comp, platform, model,
                    cache=PersistentCache(directory),
                    vectorize=False).optimize(8)
            rows.append((label, size, exhaustive, exhaustive_plans,
                         pruned, pruned_plans, wall_s, warm, bound_entries))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    records = {}
    for label, size, exhaustive, ex_plans, pruned, pr_plans, wall_s, \
            warm, bound_entries in rows:
        # Winner identity, bit for bit, on every component.
        assert exhaustive.feasible == pruned.feasible, label
        if exhaustive.feasible:
            assert exhaustive.best.makespan_ns == \
                pruned.best.makespan_ns, label
            assert exhaustive.best.solution.key() == \
                pruned.best.solution.key(), label
        # The warm run replays the cold trajectory: every persisted
        # bound-only entry is re-pruned and counted as a bound hit.
        assert warm.bound_hits == bound_entries, label
        ratio = ex_plans / pr_plans if pr_plans else float("inf")
        report.add_row(label, size, ex_plans, pr_plans,
                       round(ratio, 1), pruned.pruned,
                       round(pruned.makespan_ns))
        records[label] = {
            "space": size,
            "evaluations": pruned.evaluations,
            "pruned": pruned.pruned,
            "bound_hits": pruned.bound_hits,
            "bound_entries": bound_entries,
            "warm_bound_hits": warm.bound_hits,
            "warm_evaluations": warm.evaluations,
            "fresh_plans": pr_plans,
            "exhaustive_plans": ex_plans,
            "wall_s": round(wall_s, 4),
            "makespan_ns": pruned.makespan_ns if pruned.feasible else None,
        }
        report.add_note(f"{label}: {engine_note(pruned.metrics)}")
    report.emit()
    _merge_bench_json("parity", records)

    # The bound tier must actually persist and re-hit entries somewhere
    # in the corpus — a sweep where both totals are zero measures
    # nothing (this was the warm-run `bound_hits: 0` bug).
    assert sum(row[8] for row in rows) > 0, "no bound entries persisted"
    assert sum(row[7].bound_hits for row in rows) > 0, "no warm bound hits"

    # The acceptance bar: >= 3x fewer fresh plans on the largest space.
    largest = max(rows, key=lambda row: row[1])
    label, size, _, ex_plans, _, pr_plans, _, _, _ = largest
    assert pr_plans * 3 <= ex_plans, \
        f"{label} ({size} points): {ex_plans} vs {pr_plans} plans"


@pytest.mark.benchmark(group="pruning")
def test_b2_search_beyond_the_guard(bank, benchmark):
    # The deep CNN component: the space the paper calls unaffordable and
    # the exhaustive guard refuses by default.
    tree = LoopTree.build(bank.kernel("cnn", "LARGE"))
    comp = component_at(tree, ["n", "k", "p", "q", "c"])
    model = fit_component_model(comp, bank.machine)
    platform = Platform()
    size = search_space_size(comp, platform.cores)
    assert size > EXHAUSTIVE_MAX_POINTS

    with pytest.raises(SearchSpaceTooLarge):
        ExhaustiveOptimizer(comp, platform, model).optimize(8)

    report = ExperimentReport(
        "optimizer_pruning_large",
        "Bound-driven search on the space the exhaustive guard refuses",
        ["component", "space", "evaluations", "pruned", "fresh plans",
         "elapsed (s)", "makespan (ns)"])

    def run():
        patch, counter = _counting_plans()
        with patch:
            optimizer = PrunedOptimizer(
                comp, platform, model,
                deadline=Deadline("pruned", STAGE_BUDGET_S,
                                  time.perf_counter() + STAGE_BUDGET_S))
            started = time.perf_counter()
            result = optimizer.optimize(8)   # OptimizerTimeout would fail
            elapsed = time.perf_counter() - started
        return result, elapsed, counter["plans"]

    result, elapsed, plans = benchmark.pedantic(
        run, rounds=1, iterations=1)
    assert result.feasible
    assert elapsed <= STAGE_BUDGET_S
    assert result.pruned > 0
    report.add_row(f"cnn/LARGE ({size} points)", size, result.evaluations,
                   result.pruned, plans, round(elapsed, 3),
                   round(result.makespan_ns))
    report.add_note(engine_note(result.metrics))
    report.add_note(
        f"evaluations avoided: {result.pruned} of {size} "
        f"({result.pruned / size:.1%})")
    report.emit()
    _merge_bench_json("large_space", {
        "cnn/LARGE:n.k.p.q.c": {
            "space": size,
            "evaluations": result.evaluations,
            "pruned": result.pruned,
            "bound_hits": result.bound_hits,
            "batched": result.batched,
            "batch_fallbacks": result.batch_fallbacks,
            "fresh_plans": plans,
            "wall_s": round(elapsed, 4),
            "makespan_ns": result.makespan_ns,
        }})
