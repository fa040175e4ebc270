"""FaultPlan / FaultInjector unit tests: matching, magnitudes, no-ops."""

from repro.faults import (
    ALL_KINDS,
    DMA_JITTER,
    DMA_STALL,
    EXEC_OVERRUN,
    FUNCTIONAL_KINDS,
    NULL_INJECTOR,
    SPM_POISON,
    SWAP_DELAY,
    SWAP_DROP,
    SWAP_DUPLICATE,
    TIMING_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)


class TestFaultPlan:
    def test_kind_partitions(self):
        assert set(ALL_KINDS) == set(TIMING_KINDS) | set(FUNCTIONAL_KINDS)
        assert len(ALL_KINDS) == 7

    def test_single_and_from_specs(self):
        spec = FaultSpec(DMA_STALL, core=1, slot=2, magnitude=10.0)
        plan = FaultPlan.single(spec, seed=3)
        assert len(plan) == 1 and plan.seed == 3
        both = FaultPlan.from_specs([spec, spec], seed=3)
        assert len(both) == 2
        assert both.of_kind(DMA_STALL) == (spec, spec)
        assert both.of_kind(DMA_JITTER) == ()

    def test_describe_mentions_coordinates(self):
        spec = FaultSpec(SWAP_DROP, core=2, array="W", index=1, op="unload")
        text = spec.describe()
        assert "core=2" in text and "array=W" in text and "op=unload" in text


class TestTimingHooks:
    def test_jitter_multiplies_matching_slot_only(self):
        inj = FaultInjector(FaultPlan.single(
            FaultSpec(DMA_JITTER, core=1, slot=3, magnitude=2.5)))
        assert inj.mem_ns(1, 3, 100.0) == 250.0
        assert inj.mem_ns(1, 2, 100.0) == 100.0
        assert inj.mem_ns(0, 3, 100.0) == 100.0

    def test_stall_adds(self):
        inj = FaultInjector(FaultPlan.single(
            FaultSpec(DMA_STALL, core=0, slot=1, magnitude=42.0)))
        assert inj.mem_ns(0, 1, 8.0) == 50.0

    def test_wildcard_core_matches_everywhere(self):
        inj = FaultInjector(FaultPlan.single(
            FaultSpec(DMA_STALL, slot=1, magnitude=5.0)))
        assert inj.mem_ns(0, 1, 1.0) == 6.0
        assert inj.mem_ns(7, 1, 1.0) == 6.0

    def test_exec_overrun_targets_core_and_segment(self):
        inj = FaultInjector(FaultPlan.single(
            FaultSpec(EXEC_OVERRUN, core=2, segment=1, magnitude=3.0)))
        assert inj.exec_ns(2, 1, 10.0) == 30.0
        assert inj.exec_ns(2, 2, 10.0) == 10.0
        assert inj.exec_ns(1, 1, 10.0) == 10.0


class TestSwapHooks:
    def test_drop_matches_exact_target(self):
        inj = FaultInjector(FaultPlan.single(
            FaultSpec(SWAP_DROP, core=1, array="W", index=2, op="load")))
        assert inj.drops(1, "W", 2, "load")
        assert not inj.drops(1, "W", 2, "unload")
        assert not inj.drops(1, "W", 1, "load")
        assert not inj.drops(0, "W", 2, "load")
        assert not inj.drops(1, "out", 2, "load")

    def test_delay_sums_magnitudes(self):
        inj = FaultInjector(FaultPlan.from_specs([
            FaultSpec(SWAP_DELAY, core=0, array="a", index=1,
                      magnitude=1.0),
            FaultSpec(SWAP_DELAY, core=0, array="a", index=1,
                      magnitude=2.0),
        ]))
        assert inj.delay_slots(0, "a", 1, "load") == 3
        assert inj.delay_slots(0, "a", 2, "load") == 0

    def test_duplicate_offset(self):
        inj = FaultInjector(FaultPlan.single(
            FaultSpec(SWAP_DUPLICATE, core=0, array="a", index=1,
                      magnitude=2.0)))
        assert inj.duplicate_offset(0, "a", 1, "load") == 2
        assert inj.duplicate_offset(0, "a", 2, "load") is None

    def test_poison_elements(self):
        inj = FaultInjector(FaultPlan.single(
            FaultSpec(SPM_POISON, core=3, array="inp", index=1,
                      element=17)))
        assert inj.poison_elements(3, "inp", 1) == [17]
        assert inj.poison_elements(3, "inp", 2) == []
        assert inj.poison_elements(2, "inp", 1) == []


class TestNullInjector:
    def test_every_hook_is_identity(self):
        assert NULL_INJECTOR.mem_ns(0, 1, 123.0) == 123.0
        assert NULL_INJECTOR.exec_ns(0, 1, 456.0) == 456.0
        assert not NULL_INJECTOR.drops(0, "a", 1, "load")
        assert NULL_INJECTOR.delay_slots(0, "a", 1, "load") == 0
        assert NULL_INJECTOR.duplicate_offset(0, "a", 1, "load") is None
        assert NULL_INJECTOR.poison_elements(0, "a", 1) == []
