"""Memory-phase model tests against the paper's Section 4.2 examples."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.timing.memory import (
    alpha_index,
    burst_transfers,
    data_line_num,
    data_line_size,
    transfer_bytes,
    transfer_time_ns,
)
from repro.timing.platform import Platform


class TestPaperExamples:
    def test_2d_full_rows(self):
        # Shape(a) = <3,5>, range <2,5>: alpha = 2, one line of 10.
        assert alpha_index((2, 5), (3, 5)) == 2
        assert data_line_num((2, 5), (3, 5)) == 1
        assert data_line_size((2, 5), (3, 5)) == 10

    def test_3d_partial_middle(self):
        # Shape(a') = <6,3,5>, range <4,2,5>: alpha = 3, 4 lines of 10.
        assert alpha_index((4, 2, 5), (6, 3, 5)) == 3
        assert data_line_num((4, 2, 5), (6, 3, 5)) == 4
        assert data_line_size((4, 2, 5), (6, 3, 5)) == 10

    def test_partial_innermost(self):
        # Innermost partial: alpha = n+1, lines = product of outer dims.
        assert alpha_index((2, 3), (4, 8)) == 3
        assert data_line_num((2, 3), (4, 8)) == 2
        assert data_line_size((2, 3), (4, 8)) == 3

    def test_whole_array_single_line(self):
        assert alpha_index((4, 8), (4, 8)) == 1
        assert data_line_num((4, 8), (4, 8)) == 1
        assert data_line_size((4, 8), (4, 8)) == 32


class TestBurstsAndTime:
    def test_burst_ceiling(self):
        # 10 floats = 40 bytes over 64-byte bursts -> 1 burst.
        assert burst_transfers((2, 5), (3, 5), 4, 64) == 1
        # 100 floats = 400 bytes -> 7 bursts.
        assert burst_transfers((100,), (100,), 4, 64) == 7

    def test_transfer_time_composition(self):
        platform = Platform()
        shape, full = (4, 2, 5), (6, 3, 5)
        lines = data_line_num(shape, full)
        bursts = burst_transfers(shape, full, 4, platform.burst_bytes)
        expected = (platform.dma_line_overhead_ns * lines
                    + platform.bus_overhead_ns_per_burst * bursts * lines)
        assert transfer_time_ns(shape, full, 4, platform) == \
            pytest.approx(expected)

    def test_bus_overhead_matches_section_6_1(self):
        # 16 GB/s with 64-byte bursts: 0.0625 ns/byte -> 4 ns per burst.
        platform = Platform()
        assert platform.bus_overhead_ns_per_burst == pytest.approx(4.0)

    def test_empty_range_is_free(self):
        assert transfer_time_ns((0, 5), (3, 5), 4, Platform()) == 0.0
        assert transfer_bytes((0, 5), 4) == 0
        # The shape TileGeometry reports for a tile without a range.
        assert transfer_time_ns((), (3, 5), 4, Platform()) == 0.0

    def test_transfer_bytes(self):
        assert transfer_bytes((4, 2, 5), 8) == 320


@given(st.lists(st.integers(min_value=1, max_value=6),
                min_size=1, max_size=4).flatmap(
    lambda full: st.tuples(
        st.just(full),
        st.tuples(*[st.integers(min_value=1, max_value=f) for f in full]))))
def test_lines_times_size_covers_range(pair):
    """DataLineNum * DataLineSize always equals the number of elements."""
    full, shape = pair
    total = 1
    for extent in shape:
        total *= extent
    assert data_line_num(shape, full) * data_line_size(shape, full) == total


@given(st.integers(min_value=1, max_value=10),
       st.integers(min_value=1, max_value=10))
def test_more_bandwidth_never_slower(rows, cols):
    fast = Platform().with_bus(16e9)
    slow = Platform().with_bus(1e9)
    shape, full = (rows, cols), (rows + 1, cols)
    assert transfer_time_ns(shape, full, 4, fast) <= \
        transfer_time_ns(shape, full, 4, slow)
