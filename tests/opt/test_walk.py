"""The array-backed candidate list equals the sorted record tuples.

`enumerate_candidates` keeps the quick bounds, tile sizes and assignment
indices as arrays ordered by one ``np.lexsort``; the reference below is
the tuple list it replaced: one ``(bound, flat key, sizes, assignment
index)`` record per finite-bound point, sorted.  Both must agree element
by element on every leaf chain of every kernel at MINI and SMALL, with
the vectorized and the scalar bound source, and on each shard slice.
"""

import math
from itertools import product

import pytest

from repro.kernels import KERNELS, make_kernel
from repro.loopir import LoopTree
from repro.loopir.component import component_at
from repro.opt.bounds import BoundCalculator
from repro.opt.exhaustive import assignment_candidates
from repro.opt.walk import CandidateSpace
from repro.sim.profiler import fit_component_model
from repro.timing.platform import Platform
from tests.opt.test_bounds_corpus import leaf_chains

SHARDS = [None, (0, 3), (1, 3), (2, 3)]


def reference_candidates(component, assignments, bounds):
    """The tuple-sort enumeration: every finite-bound point, sorted."""
    records = []
    for ai, assignment in enumerate(assignments):
        _groups, candidate_lists = assignment_candidates(
            component, assignment)
        for sizes in product(*candidate_lists):
            bound = bounds.quick_bound(sizes, assignment)
            if math.isinf(bound):
                continue
            flat = tuple(
                x for k, r in zip(sizes, assignment) for x in (k, r))
            records.append((bound, flat, sizes, ai))
    records.sort()
    return records


def chain_cases():
    return [f"{name}/{preset}:{'.'.join(chain)}"
            for name in sorted(KERNELS) for preset in ("MINI", "SMALL")
            for chain in leaf_chains(
                LoopTree.build(make_kernel(name, preset)))]


@pytest.fixture(scope="module", params=chain_cases())
def chain(request):
    kernel, chain = request.param.split(":")
    tree = LoopTree.build(make_kernel(*kernel.split("/")))
    component = component_at(tree, chain.split("."))
    platform = Platform()
    bounds = BoundCalculator(component, platform,
                             fit_component_model(component))
    return component, bounds, platform.cores


@pytest.mark.parametrize("vectorize", [True, False])
def test_candidates_equal_sorted_tuples(chain, vectorize):
    component, bounds, cores = chain
    spaces = {shard: CandidateSpace(
        component, bounds, cores, 10**6, "test", lambda: None,
        vectorize=vectorize, shard_of=shard) for shard in SHARDS}
    reference = reference_candidates(
        component, spaces[None].assignments, bounds)
    assert len(reference) > 0
    for shard, space in spaces.items():
        want = reference if shard is None else \
            reference[shard[0]::shard[1]]
        got = list(space.candidates)
        assert len(space.candidates) == len(want)
        assert got == want
        # Indexing builds the same records as iterating, as Python
        # ints and floats (cache keys are hashed from them).
        for pos in {0, len(want) // 2, len(want) - 1} if want else ():
            record = space.candidates[pos]
            assert record == want[pos]
            assert type(record[0]) is float
            assert all(type(x) is int for x in record[1] + record[2])
            assert type(record[3]) is int
