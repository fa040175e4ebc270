"""Hardened-pipeline tests: golden identity, typed errors, degradation.

The fault-injection hooks must be invisible when unused: compiled
makespans and VM memory must stay bit-identical to the pre-hook build
(golden values below were captured on the unmodified seed).  On top of
that, error paths must raise the typed hierarchy from ``repro.errors``
and the compiler must degrade gracefully instead of crashing.
"""

import hashlib

import pytest

from repro.compiler import FALLBACK_CHAIN, PremCompiler
from repro.errors import (
    KernelConfigError,
    OptimizerTimeout,
    SpmAccessError,
    TileConfigError,
)
from repro.kernels import make_kernel, preset_sizes
from repro.loopir import LoopTree
from repro.loopir.component import component_at
from repro.prem.runtime import SpmBufferView
from repro.sim.machine import MachineModel
from repro.timing.platform import Platform

import numpy as np

#: (kernel, MINI makespan ns, sha256 of the post-run memory image)
#: captured on the seed revision, before the fault hooks existed.
GOLDEN = {
    "cnn": (27350.0,
            "2dd3a6dadd7f13a05888015c08ab87cb03e13b4e95c081e283f886cd814c95f1"),
    "lstm": (101831.0,
             "4bbb15234e1352713e80a574107b7324731e05e63cf73af95a2b184b38a83a4a"),
}


def _digest(arrays):
    h = hashlib.sha256()
    for name in sorted(arrays):
        h.update(name.encode())
        h.update(arrays[name].tobytes())
    return h.hexdigest()


class TestGoldenBitIdentity:
    @pytest.mark.parametrize("kernel", sorted(GOLDEN))
    def test_unfaulted_build_matches_seed(self, kernel):
        want_makespan, want_sha = GOLDEN[kernel]
        result = PremCompiler().compile(make_kernel(kernel, "MINI"))
        assert result.makespan_ns == want_makespan
        assert _digest(result.run_functional(seed=7)) == want_sha


class TestTypedErrors:
    def test_tile_cost_rejects_wrong_width_count(self):
        tree = LoopTree.build(make_kernel("cnn", "MINI"))
        comp = component_at(tree, ["n", "k", "p", "q", "c"])
        machine = MachineModel()
        with pytest.raises(TileConfigError):
            machine.tile_cost(comp, (1, 2))
        # Back-compat: the typed error still is a ValueError.
        with pytest.raises(ValueError):
            machine.tile_cost(comp, (1, 2))

    def test_tile_cost_rejects_non_positive_widths(self):
        tree = LoopTree.build(make_kernel("cnn", "MINI"))
        comp = component_at(tree, ["n", "k", "p", "q", "c"])
        with pytest.raises(TileConfigError):
            MachineModel().tile_cost(comp, (1, 2, 2, 0, 3))

    def test_spm_view_reports_coordinates(self):
        spm = np.zeros(8)
        view = SpmBufferView("W", spm, lo=(4,), shape=(4,),
                             core=2, segment=3)
        with pytest.raises(SpmAccessError) as excinfo:
            view[(9,)]
        message = str(excinfo.value)
        assert "W" in message and "(4,)" in message and "(7,)" in message
        assert excinfo.value.core == 2 and excinfo.value.segment == 3
        assert excinfo.value.index == (9,) and excinfo.value.lo == (4,)
        # Back-compat: SpmAccessError still is an IndexError.
        with pytest.raises(IndexError):
            view[(9,)]

    def test_spm_view_rank_mismatch(self):
        spm = np.zeros(8)
        view = SpmBufferView("W", spm, lo=(4,), shape=(4,))
        with pytest.raises(SpmAccessError, match="rank"):
            view[(1, 2)]

    def test_unknown_preset_is_typed(self):
        with pytest.raises(KernelConfigError):
            preset_sizes("cnn", "HUGE")
        with pytest.raises(KeyError):
            preset_sizes("cnn", "HUGE")

    def test_unknown_kernel_is_typed(self):
        with pytest.raises(KernelConfigError, match="unknown kernel"):
            make_kernel("fft", "MINI")


class TestGracefulDegradation:
    def test_infeasible_platform_falls_back_to_sequential(self):
        kernel = make_kernel("maxpool", "MINI")
        compiler = PremCompiler(Platform(spm_bytes=16))
        result = compiler.compile_fallback(kernel, stage_budget_s=5.0)
        assert result.strategy == "sequential"
        assert result.feasible and result.degraded
        assert [a.strategy for a in result.attempts] == list(FALLBACK_CHAIN)
        assert [a.status for a in result.attempts] == \
            ["infeasible", "infeasible", "ok"]

    def test_exhausted_budget_times_out_and_degrades(self):
        kernel = make_kernel("maxpool", "MINI")
        result = PremCompiler().compile_fallback(kernel, stage_budget_s=0.0)
        assert result.strategy == "sequential"
        statuses = {a.strategy: a.status for a in result.attempts}
        assert statuses["pruned"] == "timeout"
        assert statuses["greedy"] == "timeout"
        assert statuses["sequential"] == "ok"

    def test_first_stage_succeeds_at_large(self):
        # The exact branch-and-bound search finishes within the default
        # stage budget at LARGE, so the chain never degrades to greedy.
        kernel = make_kernel("lstm", "LARGE")
        staged = PremCompiler().compile_fallback(kernel)
        assert (staged.attempts[0].strategy,
                staged.attempts[0].status) == ("pruned", "ok")
        assert not staged.degraded
        direct = PremCompiler().compile(kernel, strategy="pruned")
        assert staged.makespan_ns == direct.makespan_ns

    def test_timeout_error_names_stage_and_budget(self):
        kernel = make_kernel("maxpool", "MINI")
        with pytest.raises(OptimizerTimeout, match="greedy"):
            PremCompiler().compile(kernel, strategy="greedy", budget_s=0.0)

    def test_sequential_makespan_matches_machine_model(self):
        kernel = make_kernel("maxpool", "MINI")
        compiler = PremCompiler()
        result = compiler.compile(kernel, strategy="sequential")
        expected = compiler.machine.kernel_cost(kernel) * \
            compiler.platform.ns_per_cycle
        assert result.makespan_ns == expected
        assert result.components == [] and result.feasible

    def test_no_budget_keeps_result_undegraded(self):
        kernel = make_kernel("maxpool", "MINI")
        result = PremCompiler().compile_fallback(kernel, stage_budget_s=None)
        assert result.strategy == "pruned"
        assert not result.degraded
        assert [a.status for a in result.attempts] == ["ok"]
