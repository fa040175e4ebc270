"""Warm-cache integration tests: the re-run contract.

A second compile against a populated persistent cache must (a) perform
zero fresh plans, (b) report every probe as a cache hit, and (c) choose
bit-identical solutions — the property the CI warm-cache job asserts on
a real bench.
"""

import pytest

from repro.compiler import PremCompiler
from repro.kernels import make_kernel
from repro.opt.cache import PersistentCache
from repro.prem import segments as segments_module
from repro.timing.platform import Platform


def _solutions(result):
    return [(c.component.label(), c.solution.key())
            for c in result.components]


@pytest.fixture()
def platform():
    return Platform()


class TestWarmCompile:
    @pytest.mark.parametrize("strategy", ["heuristic", "exhaustive"])
    def test_warm_run_plans_nothing(self, tmp_path, platform, strategy,
                                    monkeypatch):
        kernel = make_kernel("lstm", "MINI")
        cold = PremCompiler(
            platform, cache=PersistentCache(tmp_path)).compile(
                kernel, strategy=strategy)
        assert cold.opt_result.evaluations > 0

        plans = []
        original = segments_module.SegmentPlanner.plan

        def counting(self, solution, *args, **kwargs):
            plans.append(solution.key())
            return original(self, solution, *args, **kwargs)

        monkeypatch.setattr(
            segments_module.SegmentPlanner, "plan", counting)
        warm = PremCompiler(
            platform, cache=PersistentCache(tmp_path)).compile(
                kernel, strategy=strategy)
        assert plans == []                     # zero fresh plans
        assert warm.opt_result.evaluations == 0
        assert warm.opt_result.cache_hits > 0
        assert warm.opt_result.cache_hit_rate == 1.0
        assert warm.makespan_ns == cold.makespan_ns
        assert _solutions(warm) == _solutions(cold)

    def test_warm_parallel_matches_cold_serial(self, tmp_path, platform):
        kernel = make_kernel("lstm", "MINI")
        cold = PremCompiler(
            platform, jobs=1, cache=PersistentCache(tmp_path)).compile(
                kernel, strategy="exhaustive")
        warm = PremCompiler(
            platform, jobs=4, cache=PersistentCache(tmp_path)).compile(
                kernel, strategy="exhaustive")
        assert warm.makespan_ns == cold.makespan_ns
        assert _solutions(warm) == _solutions(cold)

    def test_per_call_override_beats_instance_default(self, tmp_path,
                                                      platform):
        kernel = make_kernel("lstm", "MINI")
        compiler = PremCompiler(platform)     # no cache by default
        compiler.compile(kernel, cache=PersistentCache(tmp_path))
        warm = compiler.compile(kernel, cache=PersistentCache(tmp_path))
        assert warm.opt_result.evaluations == 0
        assert warm.opt_result.cache_hits > 0

    def test_uncached_compiles_stay_uncached(self, tmp_path, platform):
        kernel = make_kernel("lstm", "MINI")
        compiler = PremCompiler(platform)
        first = compiler.compile(kernel)
        second = compiler.compile(kernel)
        assert second.opt_result.cache_hits == 0
        assert second.opt_result.evaluations == \
            first.opt_result.evaluations


class TestRobustChain:
    def test_robust_threads_cache_through_stages(self, tmp_path,
                                                 platform):
        kernel = make_kernel("lstm", "MINI")
        cache = PersistentCache(tmp_path)
        compiler = PremCompiler(platform)
        cold = compiler.compile_robust(kernel, cache=cache)
        assert cold.strategy == "pruned"

        warm = compiler.compile_robust(
            kernel, cache=PersistentCache(tmp_path))
        assert warm.opt_result.evaluations == 0
        assert warm.opt_result.cache_hits > 0
        assert warm.makespan_ns == cold.makespan_ns
        assert _solutions(warm) == _solutions(cold)

    def test_robust_accepts_jobs(self, platform):
        kernel = make_kernel("lstm", "MINI")
        serial = PremCompiler(platform).compile_robust(kernel, jobs=1)
        parallel = PremCompiler(platform).compile_robust(kernel, jobs=2)
        assert serial.makespan_ns == parallel.makespan_ns
        assert _solutions(serial) == _solutions(parallel)
