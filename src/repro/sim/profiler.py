"""Tile-size profiling for the execution-model fit (Section 4.2).

The paper profiles the kernel "to obtain multiple samples for the
execution time under different (l_1.K, ..., l_L.K) values" and fits the
parametric model against them.  :func:`profile_component` does the same
against the gem5-substitute :class:`~repro.sim.machine.MachineModel`,
choosing a deterministic spread of tile widths per level.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..errors import TileConfigError
from ..loopir.component import TilableComponent
from ..timing.execmodel import ExecModel, fit_exec_model
from .machine import MachineModel

#: Hard cap on fit samples: the design space is crossed per level, so the
#: per-level candidate lists are thinned until the product fits.
MAX_SAMPLES = 256


def width_candidates(n: int) -> List[int]:
    """A deterministic spread of widths for one level of trip count *n*."""
    raw = {1, 2, 3, n, max(1, n // 2), max(1, n // 4), max(1, _isqrt(n))}
    return sorted(w for w in raw if 1 <= w <= n)


def _isqrt(n: int) -> int:
    root = int(n ** 0.5)
    while root * root > n:
        root -= 1
    while (root + 1) * (root + 1) <= n:
        root += 1
    return root


def sample_widths(component: TilableComponent,
                  max_samples: int = MAX_SAMPLES) -> List[Tuple[int, ...]]:
    """Cross-product of per-level width candidates, thinned to the cap."""
    per_level = [width_candidates(node.N) for node in component.nodes]

    total = 1
    for candidates in per_level:
        total *= len(candidates)
    # Thin the longest candidate lists until the cross product fits.
    while total > max_samples:
        longest = max(range(len(per_level)), key=lambda i: len(per_level[i]))
        if len(per_level[longest]) <= 2:
            break
        removed = per_level[longest].pop(len(per_level[longest]) // 2)
        total = 1
        for candidates in per_level:
            total *= len(candidates)

    samples: List[Tuple[int, ...]] = []

    def recurse(level: int, chosen: List[int]):
        if len(samples) >= max_samples:
            return
        if level == len(per_level):
            samples.append(tuple(chosen))
            return
        for width in per_level[level]:
            recurse(level + 1, [*chosen, width])

    recurse(0, [])
    return samples


def profile_component(component: TilableComponent,
                      machine: MachineModel | None = None
                      ) -> Tuple[List[Tuple[int, ...]], List[float]]:
    """Measure tile execution cycles for a spread of width vectors.

    A level that runs zero iterations has no tile widths at all, so there
    is nothing to measure: that raises :class:`TileConfigError`."""
    for node in component.nodes:
        if node.N == 0:
            raise TileConfigError(
                f"component {component.label()}: loop {node.var} runs zero "
                f"iterations, so it has no tile widths to profile")
    machine = machine or MachineModel()
    widths = sample_widths(component)
    measured = [float(machine.tile_cost(component, w)) for w in widths]
    return widths, measured


def fit_component_model(component: TilableComponent,
                        machine: MachineModel | None = None) -> ExecModel:
    """Profile and fit the parametric execution model in one call."""
    widths, measured = profile_component(component, machine)
    return fit_exec_model(widths, measured)
