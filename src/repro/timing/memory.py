"""Memory-phase length model (Section 4.2).

A memory phase transfers the canonical data element range of one or more
arrays.  For one range the cost has two parts:

- DMA overhead, proportional to the number of *data lines* — maximal
  consecutive spans in main memory.  When the range covers the full extent
  of the trailing dimensions, those dimensions coalesce into longer lines.
- Bus time, proportional to the number of fixed-size burst transfers each
  line requires.

The functions here work on plain shapes so they can be reused by the
swap-parameter generator, the DAG builder and the reporting code.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

from .platform import Platform


def alpha_index(range_shape: Sequence[int], array_shape: Sequence[int]) -> int:
    """The paper's ``alpha``: first dimension index (1-based) such that the
    range covers the whole array extent from there to the innermost
    dimension; ``n + 1`` when even the innermost dimension is partial."""
    if len(range_shape) != len(array_shape):
        raise ValueError("range and array must have the same rank")
    n = len(array_shape)
    alpha = n + 1
    for dim in range(n, 0, -1):
        if range_shape[dim - 1] == array_shape[dim - 1]:
            alpha = dim
        else:
            break
    return alpha


def data_line_num(range_shape: Sequence[int],
                  array_shape: Sequence[int]) -> int:
    """``DataLineNum`` — number of consecutive spans the DMA must program."""
    alpha = alpha_index(range_shape, array_shape)
    product = 1
    for dim in range(1, alpha - 1):          # dims 1 .. alpha-2 (1-based)
        product *= range_shape[dim - 1]
    return max(1, product)


def data_line_size(range_shape: Sequence[int],
                   array_shape: Sequence[int]) -> int:
    """``DataLineSize`` — elements per data line."""
    alpha = alpha_index(range_shape, array_shape)
    product = 1
    for dim in range(max(1, alpha - 1), len(array_shape) + 1):
        product *= range_shape[dim - 1]
    return product


def burst_transfers(range_shape: Sequence[int], array_shape: Sequence[int],
                    element_size: int, burst_bytes: int) -> int:
    """``BurstTransfer`` — bursts needed for one data line."""
    line_bytes = data_line_size(range_shape, array_shape) * element_size
    return math.ceil(line_bytes / burst_bytes)


def transfer_time_ns(range_shape: Sequence[int], array_shape: Sequence[int],
                     element_size: int, platform: Platform) -> float:
    """``T_DMA + T_BUS`` for one canonical range, in nanoseconds.

    The empty shape ``()`` stands for no range and transfers nothing."""
    if not range_shape or any(extent <= 0 for extent in range_shape):
        return 0.0
    lines = data_line_num(range_shape, array_shape)
    bursts = burst_transfers(
        range_shape, array_shape, element_size, platform.burst_bytes)
    t_dma = platform.dma_line_overhead_ns * lines
    t_bus = platform.bus_overhead_ns_per_burst * bursts * lines
    return t_dma + t_bus


def transfer_bytes(range_shape: Sequence[int], element_size: int) -> int:
    """Payload bytes of one canonical range (Figure 6.8's middle panel)."""
    total = 1
    for extent in range_shape:
        if extent <= 0:
            return 0
        total *= extent
    return total * element_size
