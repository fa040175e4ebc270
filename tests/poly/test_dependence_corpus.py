"""Pinned dependence corpus: the ``Dep`` sets of every shipped kernel.

``data/dependences.json`` holds, for each kernel × preset, the sorted
``repr`` of every dependence of the original kernel and of its fissioned
kernel, plus the fission splits.  Any change to the Fourier–Motzkin
engine or the direction enumeration that alters a single verdict shows
up here as a diff.

Regenerate (only when a change of the ``Dep`` sets is intended)::

    PYTHONPATH=src python tests/poly/test_dependence_corpus.py
"""

import json
import pathlib

import pytest

from repro.compiler import fission_kernel
from repro.kernels import KERNELS, PRESET_NAMES, make_kernel
from repro.loopir import analyze_dependences

DATA = pathlib.Path(__file__).parent / "data" / "dependences.json"
KEYS = [f"{name}/{preset}"
        for name in sorted(KERNELS) for preset in PRESET_NAMES]


def corpus_entry(key: str) -> dict:
    kernel = make_kernel(*key.split("/"))
    result = fission_kernel(kernel)
    return {
        "original": sorted(repr(d) for d in analyze_dependences(kernel)),
        "fissioned": sorted(
            repr(d) for d in analyze_dependences(result.kernel)),
        "splits": [split.describe() for split in result.splits],
    }


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DATA.read_text())


def test_corpus_covers_every_kernel_and_preset(pinned):
    assert sorted(pinned) == sorted(KEYS)


@pytest.mark.parametrize("key", KEYS)
def test_dependences_match_pinned_corpus(key, pinned):
    assert corpus_entry(key) == pinned[key]


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(
        {key: corpus_entry(key) for key in KEYS},
        indent=1, sort_keys=True) + "\n")
