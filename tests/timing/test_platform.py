"""Platform configuration tests (Section 6.1 defaults, Table 6.1)."""

import math

import pytest

from repro.timing.platform import API_WCET_NS, Platform, bus_speed_gb


class TestDefaults:
    def test_section_6_1_configuration(self):
        p = Platform()
        assert p.cores == 8
        assert p.freq_hz == 10 ** 9
        assert p.spm_bytes == 128 * 1024
        assert p.bus_bytes_per_s == 16 * 10 ** 9
        assert p.burst_bytes == 64
        assert p.dma_line_overhead_ns == 40.0

    def test_table_6_1_values(self):
        p = Platform()
        assert p.api_cost("allocate_buffer") == 1139
        assert p.api_cost("dispatch") == 861
        assert p.api_cost("DMA_int_handler") == 1187
        assert p.api_cost("end_segment") == 1878
        assert p.api_cost("swap_buffer") == 1914
        assert p.api_cost("swap2d_buffer") == 1248
        # Section 6.1's assumptions: swapnd ~ swap2d, threadID free.
        assert p.api_cost("swapnd_buffer") == p.api_cost("swap2d_buffer")
        assert p.api_cost("threadID") == 0

    def test_unknown_api_rejected(self):
        with pytest.raises(KeyError):
            Platform().api_cost("warp_drive")

    def test_partitions(self):
        assert Platform().spm_partition_bytes == 64 * 1024


class TestDerived:
    def test_with_bus_spm_cores(self):
        p = Platform()
        assert p.with_bus(1e9).bus_bytes_per_s == 1e9
        assert p.with_spm(2 ** 20).spm_bytes == 2 ** 20
        assert p.with_cores(4).cores == 4
        # originals untouched (frozen dataclass copies)
        assert p.cores == 8

    def test_ns_per_cycle(self):
        assert Platform().ns_per_cycle == 1.0
        assert Platform(freq_hz=2 * 10 ** 9).ns_per_cycle == 0.5

    def test_bus_speed_gb_helper(self):
        assert bus_speed_gb(1 / 16) == 10 ** 9 / 16

    def test_validation(self):
        with pytest.raises(ValueError):
            Platform(cores=0)
        with pytest.raises(ValueError):
            Platform(spm_bytes=0)
        with pytest.raises(ValueError):
            Platform(bus_bytes_per_s=0)

    @pytest.mark.parametrize("field", [
        "bus_bytes_per_s", "freq_hz", "dma_line_overhead_ns"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_rejects_non_finite_and_negative_timing(self, field, value):
        with pytest.raises(ValueError):
            Platform(**{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_rejects_bad_api_costs(self, value):
        with pytest.raises(ValueError, match="swap_buffer"):
            Platform(api_wcet_ns={**API_WCET_NS, "swap_buffer": value})

    def test_wcet_table_is_copied(self):
        p1, p2 = Platform(), Platform()
        assert p1.api_wcet_ns == API_WCET_NS
        assert p1.api_wcet_ns is not p2.api_wcet_ns
