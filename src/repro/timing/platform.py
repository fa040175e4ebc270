"""Platform configuration: cores, SPM, DMA, bus and PREM API costs.

Defaults reproduce Section 6.1: 8 cores at 1 GHz, 128 KiB SPM per core
(split into two streaming partitions), a single DMA with 40 ns per-line
overhead, 64-byte burst granularity, and a default bus of 16 GB/s.  API
worst-case execution times are the Table 6.1 measurements from the
streaming-model paper [Soliman et al., RTSS'19], normalised to 1 GHz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, Mapping

#: Table 6.1 — normalised worst-case execution time of PREM APIs (ns).
API_WCET_NS: Dict[str, int] = {
    "allocate_buffer": 1139,
    "dispatch": 861,
    "DMA_int_handler": 1187,
    "allocate": 1503,
    "end_segment": 1878,
    "deallocate": 861,
    "allocate2d": 1103,
    "deallocate_buffer": 776,
    "swap_buffer": 1914,
    "swap2d_buffer": 1248,
    # Section 6.1: swapnd_buffer is assumed structurally similar to
    # swap2d_buffer; threadID reads a core register and is free.
    "swapnd_buffer": 1248,
    "threadID": 0,
}

GB = 10 ** 9


@dataclass(frozen=True)
class Platform:
    """Hardware/OS model parameters.

    Attributes
    ----------
    cores:
        Number of processing cores ``P``.
    freq_hz:
        Core frequency; at the default 1 GHz one cycle is one nanosecond,
        matching the paper's unit conventions.
    spm_bytes:
        Per-core SPM capacity.  The streaming model splits it in two
        partitions (double buffering), so a solution is feasible when
        ``2 * sum(bounding box bytes) <= spm_bytes``.
    bus_bytes_per_s:
        Main-memory bus bandwidth (the x axis of Figure 6.1).
    burst_bytes:
        Data access granularity ``sizeof(G)`` of one burst transfer.
    dma_line_overhead_ns:
        ``T_DMA^overhead`` — per-data-line DMA setup cost.
    api_wcet_ns:
        PREM API worst-case costs (Table 6.1).
    """

    cores: int = 8
    freq_hz: int = 1 * GB
    spm_bytes: int = 128 * 1024
    bus_bytes_per_s: float = 16 * GB
    burst_bytes: int = 64
    dma_line_overhead_ns: float = 40.0
    api_wcet_ns: Mapping[str, int] = field(
        default_factory=lambda: dict(API_WCET_NS))

    def __post_init__(self):
        if self.cores <= 0:
            raise ValueError("cores must be positive")
        if self.spm_bytes <= 0 or self.burst_bytes <= 0:
            raise ValueError("spm_bytes and burst_bytes must be positive")
        # Written so NaN fails every check: comparisons with it are False.
        if not 0 < self.bus_bytes_per_s < math.inf:
            raise ValueError(
                f"bus speed must be positive and finite, got "
                f"{self.bus_bytes_per_s}")
        if not 0 < self.freq_hz < math.inf:
            raise ValueError(
                f"freq_hz must be positive and finite, got {self.freq_hz}")
        if not 0 <= self.dma_line_overhead_ns < math.inf:
            raise ValueError(
                f"DMA overhead must be non-negative and finite, got "
                f"{self.dma_line_overhead_ns}")
        for name, cost in self.api_wcet_ns.items():
            if not 0 <= cost < math.inf:
                raise ValueError(
                    f"API cost {name!r} must be non-negative and finite, "
                    f"got {cost}")

    @property
    def bus_overhead_ns_per_burst(self) -> float:
        """``T_BUS^overhead`` — time to move one burst over the bus."""
        return self.burst_bytes / self.bus_bytes_per_s * 1e9

    @property
    def ns_per_cycle(self) -> float:
        return 1e9 / self.freq_hz

    @property
    def spm_partition_bytes(self) -> int:
        """Capacity of one of the two streaming partitions."""
        return self.spm_bytes // 2

    def api_cost(self, name: str) -> float:
        """WCET of one API call in nanoseconds."""
        try:
            return float(self.api_wcet_ns[name])
        except KeyError as exc:
            raise KeyError(f"unknown PREM API {name!r}") from exc

    def api_costs(self, *names: str) -> tuple:
        """WCETs of several APIs at once, in call order (ns floats).

        Array-friendly export for batch consumers that hoist the API
        constants out of their vectorized inner loops."""
        return tuple(self.api_cost(name) for name in names)

    def with_bus(self, bytes_per_s: float) -> "Platform":
        """A copy at a different bus speed (bandwidth sweeps)."""
        return replace(self, bus_bytes_per_s=bytes_per_s)

    def with_spm(self, spm_bytes: int) -> "Platform":
        """A copy at a different SPM size (Figure 6.4 sweeps)."""
        return replace(self, spm_bytes=spm_bytes)

    def with_cores(self, cores: int) -> "Platform":
        """A copy with a different core count."""
        return replace(self, cores=cores)

    def with_dma_overhead(self, overhead_ns: float) -> "Platform":
        """A copy at a different per-line DMA overhead."""
        return replace(self, dma_line_overhead_ns=overhead_ns)

    def with_timing_scales(self, bus: float = 1.0, dma: float = 1.0,
                           api: float = 1.0) -> "Platform":
        """A copy with multiplicative noise on the timing parameters.

        *bus* scales the bus bandwidth (``bus < 1`` is a slower bus),
        *dma* the per-line DMA overhead and *api* every PREM API
        worst-case cost.  Scales must be positive; the no-argument call
        is the identity.  This is the perturbation surface the robust
        optimizer's Monte-Carlo timing scenarios act through — the
        structural parameters (cores, SPM, burst size) are deliberately
        not scalable here, so feasibility of a solution is invariant
        across scenarios.
        """
        if bus <= 0 or dma <= 0 or api <= 0:
            raise ValueError("timing scales must be positive")
        if bus == 1.0 and dma == 1.0 and api == 1.0:
            return self
        return replace(
            self,
            bus_bytes_per_s=self.bus_bytes_per_s * bus,
            dma_line_overhead_ns=self.dma_line_overhead_ns * dma,
            api_wcet_ns={name: cost * api
                         for name, cost in self.api_wcet_ns.items()},
        )


DEFAULT_PLATFORM = Platform()


def bus_speed_gb(gbytes_per_s: float) -> float:
    """Convenience: GB/s to bytes/s (Figure 6.1's axis is in GB/s)."""
    return gbytes_per_s * GB
