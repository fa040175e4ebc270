"""Pinned pipeline corpus: the §4.2 recurrence's outputs, bit for bit.

``data/pipeline_corpus.json`` holds, for the six kernels at MINI and
cnn and maxpool at SMALL, on the default platform and on a tight one
(1 KiB SPM, 1 GB/s bus), what :func:`evaluate_pipeline` returns for
every plan the serial ``pruned`` walk scores through
:meth:`MakespanEvaluator.evaluate` (and re-plans for its winners):

- ``plans``: how many pipelines were evaluated;
- ``results``: a sha256 over ``float.hex`` of all five
  :class:`PipelineResult` fields of each of them, in call order;
- ``timeline``: a sha256 over every :func:`static_timeline` op of each
  chosen component's plan.

Per kernel (MINI, default platform) it also pins one seeded fault
replay: the first component's winning plan evaluated under a
:class:`FaultInjector` carrying DMA jitter (one of them a zero
stretch), DMA stalls and execution overruns, with its timeline.  Any
change to the recurrence — its arithmetic, its tie-breaking, its
timeline order or its injector hooks — shows up here as a diff.

Regenerate (only when a change of the pipeline's output is intended)::

    PYTHONPATH=src python tests/schedule/test_pipeline_corpus.py
"""

import hashlib
import json
import pathlib
import random

import pytest

import repro.schedule.makespan as makespan_module
from repro.faults.plan import (DMA_JITTER, DMA_STALL, EXEC_OVERRUN,
                               FaultInjector, FaultPlan, FaultSpec)
from repro.kernels import KERNELS, make_kernel
from repro.loopir.looptree import LoopTree
from repro.opt.pruned import PrunedOptimizer
from repro.opt.tree import TreeOptimizer
from repro.schedule.pipeline import evaluate_pipeline, static_timeline
from repro.timing.platform import Platform

DATA = pathlib.Path(__file__).parent / "data" / "pipeline_corpus.json"
PLATFORMS = {
    "default": Platform(),
    "tight": Platform().with_spm(1024).with_bus(1e9),
}
KERNEL_CASES = [f"{name}/MINI" for name in sorted(KERNELS)] + [
    "cnn/SMALL", "maxpool/SMALL"]
KEYS = [f"{case}/{platform}" for case in KERNEL_CASES
        for platform in PLATFORMS] + [
    f"faults/{name}" for name in sorted(KERNELS)]


def _result_fields(result):
    return [float.hex(value) for value in (
        result.makespan_ns, result.exec_finish_ns, result.dma_finish_ns,
        result.dma_busy_ns, result.exec_busy_ns)]


def _op_fields(op):
    return [op.kind, op.core, op.index,
            float.hex(op.start_ns), float.hex(op.end_ns)]


def _digest(rows) -> str:
    return hashlib.sha256(
        json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


def _serial_pruned(key: str):
    """Compile *key* with the per-candidate pruned walk, recording every
    pipeline :class:`MakespanEvaluator` evaluates."""
    name, preset, platform_name = key.split("/")
    platform = PLATFORMS[platform_name]
    recorded = []

    def recording(cores):
        result = evaluate_pipeline(cores)
        recorded.append(_result_fields(result))
        return result

    def optimize_fn(component, exec_model):
        return PrunedOptimizer(component, platform, exec_model,
                               vectorize=False).optimize(platform.cores)

    original = makespan_module.evaluate_pipeline
    makespan_module.evaluate_pipeline = recording
    try:
        tree = LoopTree.build(make_kernel(name, preset))
        result = TreeOptimizer(tree).optimize(
            platform, optimize_fn=optimize_fn)
    finally:
        makespan_module.evaluate_pipeline = original
    return result, recorded


def _winner_cores(result):
    return [choice.result.best.plan.cores for choice in result.choices
            if choice.result.best is not None]


def compile_entry(key: str) -> dict:
    result, recorded = _serial_pruned(key)
    timeline = [_op_fields(op) for cores in _winner_cores(result)
                for op in static_timeline(cores)]
    return {
        "plans": len(recorded),
        "results": _digest(recorded),
        "timeline": _digest(timeline),
    }


def fault_entry(key: str) -> dict:
    name = key.split("/")[1]
    result, _ = _serial_pruned(f"{name}/MINI/default")
    cores = _winner_cores(result)[0]
    rng = random.Random(7)
    busy = [(core.core, slot) for core in cores
            for slot, length in enumerate(core.mem_slot_ns, 1)
            if length > 0.0]
    segments = [(core.core, segment) for core in cores
                for segment in range(1, core.n_segments + 1)]
    specs = []
    for kind, low, high in ((DMA_JITTER, 0.5, 6.0), (DMA_STALL, 5e2, 5e4),
                            (EXEC_OVERRUN, 1.5, 4.0)):
        pool = segments if kind == EXEC_OVERRUN else busy
        for _ in range(3):
            core, where = rng.choice(pool)
            coords = dict(core=core, segment=where) \
                if kind == EXEC_OVERRUN else dict(core=core, slot=where)
            specs.append(FaultSpec(kind, magnitude=rng.uniform(low, high),
                                   **coords))
    core, slot = rng.choice(busy)
    specs.append(FaultSpec(DMA_JITTER, core=core, slot=slot, magnitude=0.0))
    timeline = []
    faulted = evaluate_pipeline(
        cores, injector=FaultInjector(FaultPlan.from_specs(specs, seed=7)),
        timeline=timeline)
    return {
        "result": _result_fields(faulted),
        "timeline": _digest([_op_fields(op) for op in timeline]),
    }


def corpus_entry(key: str) -> dict:
    return fault_entry(key) if key.startswith("faults/") \
        else compile_entry(key)


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DATA.read_text())


def test_corpus_covers_every_case(pinned):
    assert sorted(pinned) == sorted(KEYS)


@pytest.mark.parametrize("key", KEYS)
def test_pipeline_matches_pinned_corpus(key, pinned):
    assert corpus_entry(key) == pinned[key]


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(
        {key: corpus_entry(key) for key in KEYS},
        indent=1, sort_keys=True) + "\n")
