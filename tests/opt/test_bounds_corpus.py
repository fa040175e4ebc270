"""Pinned bounds corpus: the bound tier's values and the searches it drives.

``data/bounds_corpus.json`` pins two things:

- ``bounds``: for every leaf chain of cnn, convrelu, maxpool and sumpool
  at MINI and of lstm and rnn at SMALL, on the default platform and on
  an 8 KiB SPM, the number of candidate points and one sha256 over, per
  candidate in enumeration order, the exact bits (``float.hex``) of
  ``quick_bound``, ``refine``, ``dma_bytes_floor``, ``spm_bytes_exact``
  and ``spm_bytes_floor`` plus the ``exact_infeasible`` reason;
- ``searches``: what ``strategy="pruned"`` and ``strategy="pareto"``
  compile for the six kernels at MINI and cnn, lstm and rnn at SMALL:
  the makespan's bits, the ``evaluations``, ``pruned`` and
  ``bound_hits`` counters, each component's front size and the ``repr``
  of each chosen solution key.

Any change to the bound arithmetic, its accumulation order or the
infeasibility tests that moves a single bit shows up here as a diff.

Regenerate (only when a change of the bound tier's output is intended)::

    PYTHONPATH=src python tests/opt/test_bounds_corpus.py
"""

import hashlib
import json
import pathlib
from itertools import product

import pytest

from repro.compiler import PremCompiler
from repro.kernels import KERNELS, make_kernel
from repro.loopir import LoopTree
from repro.loopir.component import component_at
from repro.loopir.validity import is_chain_extendable
from repro.opt.bounds import BoundCalculator
from repro.opt.exhaustive import assignment_candidates
from repro.opt.threadgroups import generate_nondominated_thread_groups
from repro.sim.profiler import fit_component_model
from repro.timing.platform import Platform

DATA = pathlib.Path(__file__).parent / "data" / "bounds_corpus.json"
PLATFORMS = {"default": Platform(), "spm8k": Platform(spm_bytes=8192)}
BOUND_KERNELS = [f"{name}/MINI" for name in (
    "cnn", "convrelu", "maxpool", "sumpool")] + [
    f"{name}/SMALL" for name in ("lstm", "rnn")]
SEARCH_KERNELS = [f"{name}/MINI" for name in sorted(KERNELS)] + [
    f"{name}/SMALL" for name in ("cnn", "lstm", "rnn")]
STRATEGIES = ("pruned", "pareto")


def leaf_chains(tree):
    """Maximal perfectly-nested chains, as Algorithm 2 extracts them."""
    chains = []

    def walk(node, chain):
        chain = chain + [node]
        if not node.children:
            chains.append(tuple(n.var for n in chain))
        elif is_chain_extendable(node.loop) and len(node.children) == 1:
            walk(node.children[0], chain)
        else:
            for child in node.children:
                walk(child, [])

    for root in tree.roots:
        walk(root, [])
    return chains


def bound_cases():
    cases = []
    for kernel in BOUND_KERNELS:
        tree = LoopTree.build(make_kernel(*kernel.split("/")))
        for chain in leaf_chains(tree):
            for platform in PLATFORMS:
                cases.append(f"{kernel}:{'.'.join(chain)}@{platform}")
    return cases


def _hex(value) -> str:
    return "None" if value is None else float(value).hex()


def bounds_entry(case: str) -> dict:
    kernel, rest = case.split(":")
    chain, platform_name = rest.split("@")
    platform = PLATFORMS[platform_name]
    component = component_at(
        LoopTree.build(make_kernel(*kernel.split("/"))), chain.split("."))
    bounds = BoundCalculator(
        component, platform, fit_component_model(component))
    vars_ = [node.var for node in component.nodes]
    digest = hashlib.sha256()
    count = 0
    for assignment in generate_nondominated_thread_groups(
            platform.cores, component):
        groups, lists = assignment_candidates(component, assignment)
        for sizes in product(*lists):
            sizes_map = dict(zip(vars_, sizes))
            quick = bounds.quick_bound(sizes, assignment)
            fields = (
                repr(sizes), repr(assignment), _hex(quick),
                _hex(bounds.refine(quick, sizes, assignment)),
                _hex(bounds.dma_bytes_floor(sizes, assignment, sizes_map)),
                _hex(bounds.spm_bytes_exact(sizes_map)),
                _hex(bounds.spm_bytes_floor(sizes)),
                repr(bounds.exact_infeasible(sizes_map, groups)))
            digest.update((" ".join(fields) + "\n").encode())
            count += 1
    return {"candidates": count, "sha256": digest.hexdigest()}


def search_entry(case: str) -> dict:
    kernel, strategy = case.split("@")
    result = PremCompiler().compile(
        make_kernel(*kernel.split("/")), strategy=strategy)
    opt = result.opt_result
    return {
        "makespan": float.hex(result.makespan_ns),
        "evaluations": opt.evaluations,
        "pruned": opt.pruned,
        "bound_hits": opt.bound_hits,
        "fronts": [len(getattr(choice.result, "front", ()))
                   for choice in opt.choices],
        "solutions": [
            [compiled.component.label(), repr(compiled.solution.key())]
            for compiled in result.components],
    }


BOUND_CASES = bound_cases()
SEARCH_CASES = [f"{kernel}@{strategy}"
                for kernel in SEARCH_KERNELS for strategy in STRATEGIES]


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DATA.read_text())


def test_corpus_covers_every_case(pinned):
    assert sorted(pinned["bounds"]) == sorted(BOUND_CASES)
    assert sorted(pinned["searches"]) == sorted(SEARCH_CASES)


@pytest.mark.parametrize("case", BOUND_CASES)
def test_bounds_match_pinned_corpus(case, pinned):
    assert bounds_entry(case) == pinned["bounds"][case]


@pytest.mark.parametrize("case", SEARCH_CASES)
def test_search_matches_pinned_corpus(case, pinned):
    assert search_entry(case) == pinned["searches"][case]


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps({
        "bounds": {case: bounds_entry(case) for case in BOUND_CASES},
        "searches": {case: search_entry(case) for case in SEARCH_CASES},
    }, indent=1, sort_keys=True) + "\n")
