"""Pinned heuristic corpus: Algorithm 1's outputs on the shipped kernels.

``data/heuristic_corpus.json`` holds, for the six kernels at MINI and
cnn, maxpool, lstm and rnn at SMALL, what ``strategy="heuristic"``
produces on the default platform: the makespan's exact bits
(``float.hex``), the ``evaluations`` and ``cache_hits`` counters, and
the ``repr`` of each chosen component's solution key.  Any change to
the ternary search, its scoring path or the planner arithmetic under
it that moves a single probe shows up here as a diff.

Regenerate (only when a change of the heuristic's output is intended)::

    PYTHONPATH=src python tests/opt/test_heuristic_corpus.py
"""

import json
import pathlib

import pytest

from repro.compiler import PremCompiler
from repro.kernels import KERNELS, make_kernel

DATA = pathlib.Path(__file__).parent / "data" / "heuristic_corpus.json"
KEYS = [f"{name}/MINI" for name in sorted(KERNELS)] + [
    f"{name}/SMALL" for name in ("cnn", "lstm", "maxpool", "rnn")]


def corpus_entry(key: str) -> dict:
    result = PremCompiler().compile(
        make_kernel(*key.split("/")), strategy="heuristic")
    return {
        "makespan": float.hex(result.makespan_ns),
        "evaluations": result.opt_result.evaluations,
        "cache_hits": result.opt_result.cache_hits,
        "solutions": [
            [compiled.component.label(), repr(compiled.solution.key())]
            for compiled in result.components],
    }


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DATA.read_text())


def test_corpus_covers_every_case(pinned):
    assert sorted(pinned) == sorted(KEYS)


@pytest.mark.parametrize("key", KEYS)
def test_heuristic_matches_pinned_corpus(key, pinned):
    assert corpus_entry(key) == pinned[key]


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(
        {key: corpus_entry(key) for key in KEYS},
        indent=1, sort_keys=True) + "\n")
