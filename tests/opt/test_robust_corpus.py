"""Pinned robust corpus: what ``strategy="robust"`` compiles, bit for bit.

``data/robust_corpus.json`` holds, for lstm, rnn and maxpool at MINI
and SMALL under risk ``cvar`` and ``worst`` (8 scenarios, seed 0, the
default platform), the makespan's exact bits (``float.hex``), the
``evaluations`` and ``pruned`` counters, and per component: the
``repr`` of the robust and of the nominal winner's solution key, both
winners' nominal and per-scenario makespans and risk as ``float.hex``,
the sensitivity makespans, and the ``finalists`` and
``scenario_probes`` counts.  Any change to the scenario evaluators, the
envelope bound or the planner arithmetic under them that moves a single
bit or probe shows up here as a diff.

Regenerate (only when a change of the robust search's output is
intended)::

    PYTHONPATH=src python tests/opt/test_robust_corpus.py
"""

import json
import pathlib

import pytest

from repro.compiler import PremCompiler
from repro.kernels import make_kernel

DATA = pathlib.Path(__file__).parent / "data" / "robust_corpus.json"
KERNELS = [f"{name}/{preset}" for name in ("lstm", "maxpool", "rnn")
           for preset in ("MINI", "SMALL")]
RISKS = ("cvar", "worst")
CASES = [f"{kernel}@{risk}" for kernel in KERNELS for risk in RISKS]


def _risk_record(record) -> dict:
    return {
        "solution": repr(record.solution.key()),
        "nominal": float.hex(record.nominal_ns),
        "scenarios": [float.hex(value) for value in record.scenario_ns],
        "risk": float.hex(record.risk_ns),
    }


def corpus_entry(case: str) -> dict:
    kernel, risk = case.split("@")
    result = PremCompiler(seed=0).compile(
        make_kernel(*kernel.split("/")), strategy="robust",
        scenarios=8, risk=risk)
    opt = result.opt_result
    components = []
    for choice in opt.choices:
        robust = choice.result
        components.append({
            "component": choice.component.label(),
            "robust": None if robust.robust is None
            else _risk_record(robust.robust),
            "nominal": None if robust.nominal is None
            else _risk_record(robust.nominal),
            "sensitivity": [[entry.parameter, float.hex(entry.makespan_ns)]
                            for entry in robust.sensitivity],
            "finalists": robust.finalists,
            "scenario_probes": robust.scenario_probes,
        })
    return {
        "makespan": float.hex(result.makespan_ns),
        "evaluations": opt.evaluations,
        "pruned": opt.pruned,
        "components": components,
    }


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DATA.read_text())


def test_corpus_covers_every_case(pinned):
    assert sorted(pinned) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_robust_matches_pinned_corpus(case, pinned):
    assert corpus_entry(case) == pinned[case]


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(
        {case: corpus_entry(case) for case in CASES},
        indent=1, sort_keys=True) + "\n")
