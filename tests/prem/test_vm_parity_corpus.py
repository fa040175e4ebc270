"""Pinned PREM VM corpus: what the VM does on the shipped kernels.

``data/vm_parity_corpus.json`` holds, for the six kernels at MINI and
SMALL under the default compile (``PremCompiler().compile(kernel)``):

- ``arrays``: sha256 over the sorted array names and bytes of the main
  memory ``run_functional`` leaves behind;
- ``trace``: sha256 over the ``repr`` of every fault-free
  :class:`VmTrace` event of a traced whole-kernel run — one
  :class:`PremRuntime` and one trace per component, reused across every
  outer iteration, exactly as ``run_kernel_prem`` drives them.

It also pins the seeded fault campaigns ``repro faults cnn --seed 7``
and ``repro faults lstm --seed 7``: the rendered table, plus a sha256
over every outcome's spec, verdict, VM error text and violations.

The VM must reproduce these bit for bit: a speed-up of the VM that moves
one element, one DMA op or one error message shows up as a diff.

Regenerate (only when a change of the VM's behaviour is intended)::

    PYTHONPATH=src python tests/prem/test_vm_parity_corpus.py
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.compiler import PremCompiler
from repro.faults.campaign import run_campaign
from repro.kernels import KERNELS, make_kernel
from repro.loopir.ast import Stmt
from repro.prem.runtime import PremRuntime, VmTrace, init_arrays

DATA = pathlib.Path(__file__).parent / "data" / "vm_parity_corpus.json"
KERNEL_KEYS = [f"{name}/{preset}" for preset in ("MINI", "SMALL")
               for name in sorted(KERNELS)]
CAMPAIGN_KEYS = ["faults/cnn/7", "faults/lstm/7"]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _arrays_sha(arrays) -> str:
    digest = hashlib.sha256()
    for name in sorted(arrays):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(arrays[name]).tobytes())
    return digest.hexdigest()


def _traced_run(kernel, components, arrays):
    """``run_kernel_prem`` with a :class:`VmTrace` on every runtime."""
    traces = {head: VmTrace() for head in components}
    runtimes = {
        head: PremRuntime(component, solution, trace=traces[head])
        for head, (component, solution) in components.items()
    }

    def run_loop(loop, point):
        if not all(g.satisfied(point) for g in loop.guards):
            return
        if loop.var in runtimes:
            runtimes[loop.var].run(arrays, outer=point)
            return
        for value in loop.loop_range.values():
            point[loop.var] = value
            for child in loop.body:
                if isinstance(child, Stmt):
                    if all(g.satisfied(point) for g in child.guards):
                        child.compute(arrays, point)
                else:
                    run_loop(child, point)
        point.pop(loop.var, None)

    for root in kernel.roots:
        run_loop(root, {})
    return [traces[head].events for head in sorted(traces)]


def kernel_entry(key: str) -> dict:
    kernel = make_kernel(*key.split("/"))
    result = PremCompiler().compile(kernel)
    functional = result.run_functional()
    traced = init_arrays(kernel)
    events = _traced_run(kernel, result.component_map(), traced)
    # The trace hook must not perturb the run.
    for name in functional:
        assert np.array_equal(functional[name], traced[name],
                              equal_nan=True), name
    return {
        "arrays": _arrays_sha(functional),
        "trace": _sha(repr(events).encode()),
        "events": sum(len(component) for component in events),
    }


def campaign_entry(key: str) -> dict:
    _, kernel, seed = key.split("/")
    campaign = run_campaign(kernel, seed=int(seed))
    detail = [
        (outcome.spec, outcome.affecting, outcome.detected, outcome.error,
         outcome.violations)
        for outcome in campaign.outcomes
    ]
    return {
        "table": campaign.describe().splitlines(),
        "outcomes": _sha(repr(detail).encode()),
    }


def corpus_entry(key: str) -> dict:
    if key.startswith("faults/"):
        return campaign_entry(key)
    return kernel_entry(key)


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DATA.read_text())


def test_corpus_covers_every_case(pinned):
    assert sorted(pinned) == sorted(KERNEL_KEYS + CAMPAIGN_KEYS)


@pytest.mark.parametrize("key", KERNEL_KEYS + CAMPAIGN_KEYS)
def test_vm_matches_pinned_corpus(key, pinned):
    assert corpus_entry(key) == pinned[key]


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(
        {key: corpus_entry(key) for key in KERNEL_KEYS + CAMPAIGN_KEYS},
        indent=1, sort_keys=True) + "\n")
