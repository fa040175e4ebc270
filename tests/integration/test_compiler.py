"""End-to-end compiler pipeline tests (Figure 5.1's toolchain)."""

import math

import numpy as np
import pytest

from repro.compiler import PremCompiler
from repro.kernels import make_kernel
from repro.timing.platform import Platform


@pytest.fixture(scope="module")
def compiled_small_cnn():
    return PremCompiler(Platform()).compile(make_kernel("cnn", "SMALL"))


class TestCompile:
    def test_result_fields(self, compiled_small_cnn):
        result = compiled_small_cnn
        assert result.feasible
        assert result.ideal_ns > 0
        assert result.makespan_ns > 0
        assert result.components
        assert 0 < result.normalized_makespan < 2.0

    def test_generated_c_per_component(self, compiled_small_cnn):
        sources = compiled_small_cnn.generate_c()
        assert "(n, k, p, q, c)" in sources
        text = sources["(n, k, p, q, c)"]
        assert "BUFFER_ALLOC_APIS" in text
        assert "end_segment();" in text

    def test_greedy_strategy(self):
        kernel = make_kernel("cnn", "SMALL")
        compiler = PremCompiler(Platform())
        heuristic = compiler.compile(kernel)
        greedy = compiler.compile(kernel, strategy="greedy")
        assert greedy.feasible
        assert heuristic.makespan_ns <= greedy.makespan_ns * 1.001

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            PremCompiler(Platform()).compile(
                make_kernel("cnn", "MINI"), strategy="magic")

    @pytest.mark.parametrize("cores", [0, -2])
    def test_non_positive_cores_rejected(self, cores):
        with pytest.raises(ValueError, match="cores must be positive"):
            PremCompiler(Platform()).compile(
                make_kernel("rnn", "MINI"), cores=cores)

    def test_functional_equivalence(self):
        result = PremCompiler(Platform(spm_bytes=8192)).compile(
            make_kernel("lstm", "MINI"))
        expected = result.run_reference(seed=21)
        actual = result.run_functional(seed=21)
        for name in expected:
            np.testing.assert_allclose(
                actual[name], expected[name], rtol=1e-5, atol=1e-6)


class TestShapeClaims:
    """Coarse reproductions of the evaluation's qualitative claims, fast
    enough for the unit suite (the full versions live in benchmarks/)."""

    def test_bandwidth_monotonicity(self):
        kernel = make_kernel("lstm", "LARGE")
        makespans = []
        for gb in (1 / 16, 1, 16):
            platform = Platform().with_bus(gb * 1e9)
            result = PremCompiler(platform).compile(kernel)
            makespans.append(result.makespan_ns)
        assert makespans[0] > makespans[1] >= makespans[2]

    def test_spm_monotonicity(self):
        kernel = make_kernel("lstm", "LARGE")
        slow = Platform().with_bus(1e9 / 4)
        small = PremCompiler(slow.with_spm(32 * 1024)).compile(kernel)
        large = PremCompiler(slow.with_spm(512 * 1024)).compile(kernel)
        assert large.makespan_ns <= small.makespan_ns * 1.001

    def test_eight_cores_scale_on_parallel_kernel(self):
        kernel = make_kernel("lstm", "LARGE")
        compiler = PremCompiler(Platform())
        eight = compiler.compile(kernel)
        one = compiler.compile(kernel, cores=1)
        # Figure 6.1 at full bandwidth: near-ideal on 1 core, strong
        # scaling on 8.
        assert one.normalized_makespan < 1.2
        assert eight.normalized_makespan < 0.25
        assert eight.makespan_ns < one.makespan_ns / 4

    def test_rnn_scales_worse_than_lstm(self):
        """Figure 6.1: RNN's sequential component limits its scaling."""
        compiler = PremCompiler(Platform())
        rnn = compiler.compile(make_kernel("rnn", "LARGE"))
        lstm = compiler.compile(make_kernel("lstm", "LARGE"))
        assert rnn.normalized_makespan > lstm.normalized_makespan * 2
