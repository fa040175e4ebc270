"""Timing perturbation surface and Monte-Carlo scenario machinery.

Two contracts matter here.  First, the perturbation helpers
(``Platform.with_timing_scales``, ``ExecModel.scaled``) touch *only*
timing parameters — structure (cores, SPM, burst size) is invariant, so
a solution's feasibility never depends on the scenario.  Second, the
closed-form bounds stay admissible at any positively-scaled parameter
point: that is what lets the robust optimizer prune with an envelope
bound computed at the componentwise most optimistic scenario.
"""

import math
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.scenarios import (
    DEFAULT_SPREAD,
    NOMINAL_SCENARIO,
    PARAMETERS,
    TimingScenario,
    adverse_scenario,
    envelope_scenario,
    sample_scenarios,
)
from repro.kernels import make_kernel
from repro.loopir import LoopTree
from repro.loopir.component import component_at
from repro.opt.bounds import BoundCalculator
from repro.opt.exhaustive import assignment_candidates
from repro.opt.threadgroups import generate_nondominated_thread_groups
from repro.schedule.makespan import MakespanEvaluator
from repro.sim.profiler import fit_component_model
from repro.timing.execmodel import ExecModel
from repro.timing.platform import Platform


class TestPlatformCopies:
    def test_with_bus(self):
        fast = Platform().with_bus(32e9)
        assert fast.bus_bytes_per_s == 32e9
        assert fast.cores == Platform().cores

    def test_with_spm(self):
        small = Platform().with_spm(64 * 1024)
        assert small.spm_bytes == 64 * 1024
        assert small.spm_partition_bytes == 32 * 1024

    def test_with_cores(self):
        assert Platform().with_cores(4).cores == 4

    def test_with_dma_overhead(self):
        slow = Platform().with_dma_overhead(80.0)
        assert slow.dma_line_overhead_ns == 80.0
        assert Platform().with_dma_overhead(0.0).dma_line_overhead_ns == 0.0

    def test_with_dma_overhead_rejects_negative(self):
        with pytest.raises(ValueError):
            Platform().with_dma_overhead(-1.0)

    def test_copies_do_not_mutate_the_original(self):
        base = Platform()
        base.with_bus(1e9)
        base.with_timing_scales(api=2.0)
        assert base == Platform()


class TestTimingScales:
    def test_scales_every_timing_group(self):
        base = Platform()
        noisy = base.with_timing_scales(bus=0.5, dma=2.0, api=1.5)
        assert noisy.bus_bytes_per_s == base.bus_bytes_per_s * 0.5
        assert noisy.dma_line_overhead_ns == base.dma_line_overhead_ns * 2.0
        for name, cost in base.api_wcet_ns.items():
            assert noisy.api_wcet_ns[name] == cost * 1.5

    def test_identity_returns_self(self):
        base = Platform()
        assert base.with_timing_scales() is base

    def test_structural_parameters_invariant(self):
        base = Platform()
        noisy = base.with_timing_scales(bus=0.7, dma=1.3, api=1.3)
        assert noisy.cores == base.cores
        assert noisy.spm_bytes == base.spm_bytes
        assert noisy.burst_bytes == base.burst_bytes

    @pytest.mark.parametrize("kwargs", [
        {"bus": 0.0}, {"dma": -0.1}, {"api": 0.0}])
    def test_rejects_nonpositive_scales(self, kwargs):
        with pytest.raises(ValueError):
            Platform().with_timing_scales(**kwargs)


class TestExecModelScaled:
    MODEL = ExecModel(overheads=(3.0, 0.0), work=2.0, intercept=10.0)

    def test_scales_overheads_and_intercept_together(self):
        scaled = self.MODEL.scaled(overheads=2.0)
        assert scaled.overheads == (6.0, 0.0)
        assert scaled.intercept == 20.0
        assert scaled.work == 2.0

    def test_scales_work_alone(self):
        scaled = self.MODEL.scaled(work=0.5)
        assert scaled.work == 1.0
        assert scaled.overheads == self.MODEL.overheads
        assert scaled.intercept == self.MODEL.intercept

    def test_identity_returns_self(self):
        assert self.MODEL.scaled() is self.MODEL

    def test_estimate_scales_linearly_per_group(self):
        widths = (4, 8)
        base = self.MODEL.estimate(widths)
        doubled = self.MODEL.scaled(overheads=2.0, work=2.0)
        assert doubled.estimate(widths) == pytest.approx(2.0 * base)

    @pytest.mark.parametrize("kwargs", [
        {"overheads": 0.0}, {"work": -1.0}])
    def test_rejects_nonpositive_scales(self, kwargs):
        with pytest.raises(ValueError):
            self.MODEL.scaled(**kwargs)


class TestScenarioSampling:
    def test_pure_function_of_count_seed_spread(self):
        assert sample_scenarios(16, seed=3) == sample_scenarios(16, seed=3)
        assert sample_scenarios(16, seed=3) != sample_scenarios(16, seed=4)
        assert sample_scenarios(16, spread=0.1) != \
            sample_scenarios(16, spread=0.3)

    def test_prefix_stability(self):
        # Growing the set keeps the existing scenarios bit-identical.
        assert sample_scenarios(32, seed=0)[:8] == sample_scenarios(8, seed=0)

    def test_scales_stay_inside_the_interval(self):
        for scenario in sample_scenarios(64, seed=1, spread=0.2):
            for scale in scenario.scales():
                assert 0.8 <= scale <= 1.2

    def test_zero_count_is_empty(self):
        assert sample_scenarios(0) == ()

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_scenarios(-1)
        with pytest.raises(ValueError):
            sample_scenarios(4, spread=0.0)
        with pytest.raises(ValueError):
            sample_scenarios(4, spread=1.0)

    def test_digests_are_distinct(self):
        scenarios = sample_scenarios(32, seed=0)
        digests = {s.digest() for s in scenarios}
        assert len(digests) == len(scenarios)
        assert NOMINAL_SCENARIO.digest() not in digests

    def test_scenario_validation_and_nominal(self):
        assert NOMINAL_SCENARIO.is_nominal
        assert not TimingScenario(0, bus=0.9).is_nominal
        with pytest.raises(ValueError):
            TimingScenario(0, dma=0.0)

    def test_apply_helpers(self):
        scenario = TimingScenario(0, exec_overhead=1.1, exec_work=0.9,
                                  bus=0.8, dma=1.2, api=1.05)
        platform = scenario.apply_platform(Platform())
        assert platform.bus_bytes_per_s == Platform().bus_bytes_per_s * 0.8
        model = scenario.apply_exec_model(
            ExecModel(overheads=(2.0,), work=4.0, intercept=6.0))
        assert model.overheads == (2.2,)
        assert model.work == pytest.approx(3.6)


class TestEnvelopeAndAdverse:
    def test_empty_envelope_is_nominal(self):
        assert envelope_scenario(()) is NOMINAL_SCENARIO

    def test_componentwise_optimism(self):
        scenarios = sample_scenarios(16, seed=2)
        envelope = envelope_scenario(scenarios)
        # Fastest bus, cheapest everything else.
        assert envelope.bus == max(s.bus for s in scenarios)
        assert envelope.dma == min(s.dma for s in scenarios)
        assert envelope.api == min(s.api for s in scenarios)
        assert envelope.exec_overhead == \
            min(s.exec_overhead for s in scenarios)
        assert envelope.exec_work == min(s.exec_work for s in scenarios)

    def test_adverse_moves_one_group_to_its_costly_extreme(self):
        for parameter in PARAMETERS:
            scenario = adverse_scenario(parameter, spread=0.25)
            for name, scale in zip(PARAMETERS, scenario.scales()):
                if name != parameter:
                    assert scale == 1.0
                elif name == "bus":
                    assert scale == 0.75     # slower bus is adverse
                else:
                    assert scale == 1.25

    def test_adverse_rejects_unknown_parameter(self):
        with pytest.raises(ValueError):
            adverse_scenario("cores")


# -- envelope admissibility against the evaluator --------------------------


def _component(kernel_name, preset, vars_):
    tree = LoopTree.build(make_kernel(kernel_name, preset))
    comp = component_at(tree, vars_)
    return comp, fit_component_model(comp)


@pytest.fixture(scope="module")
def rnn_small():
    return _component("rnn", "SMALL", ["s1", "p"])


positive_scales = st.tuples(*(
    st.floats(min_value=0.5, max_value=2.0,
              allow_nan=False, allow_infinity=False)
    for _ in PARAMETERS))


@settings(max_examples=10, deadline=None)
@given(scales=positive_scales)
def test_bounds_admissible_at_any_positive_scale(rnn_small, scales):
    """quick/refined bounds computed *at* perturbed parameters never
    exceed the planner's makespan at the same parameters — the property
    the robust search's envelope pruning rests on (DESIGN §10)."""
    comp, model = rnn_small
    scenario = TimingScenario(0, *scales)
    platform = scenario.apply_platform(Platform())
    exec_model = scenario.apply_exec_model(model)
    evaluator = MakespanEvaluator(comp, platform, exec_model)
    bounds = BoundCalculator(
        comp, platform, exec_model, modes=evaluator.planner.modes)
    vars_ = [n.var for n in comp.nodes]
    checked = 0
    for assignment in generate_nondominated_thread_groups(8, comp):
        groups, lists = assignment_candidates(comp, assignment)
        for index, sizes in enumerate(product(*lists)):
            if index % 3:              # subsample: plans are the cost
                continue
            quick = bounds.quick_bound(sizes, assignment)
            truth = evaluator.evaluate_params(
                dict(zip(vars_, sizes)), groups)
            if math.isinf(quick):
                assert not truth.feasible, (sizes, assignment)
                continue
            refined = bounds.refine(quick, sizes, assignment)
            if truth.feasible:
                assert quick <= refined <= truth.makespan_ns, \
                    (sizes, assignment, scales)
                checked += 1
    assert checked > 0


def test_envelope_bound_lower_bounds_every_scenario(rnn_small):
    """The bound at the envelope parameters lower-bounds the true
    makespan under *each* scenario of the set it envelopes."""
    comp, model = rnn_small
    scenarios = sample_scenarios(6, seed=5)
    envelope = envelope_scenario(scenarios)
    env_eval = MakespanEvaluator(
        comp, envelope.apply_platform(Platform()),
        envelope.apply_exec_model(model))
    env_bounds = BoundCalculator(
        comp, envelope.apply_platform(Platform()),
        envelope.apply_exec_model(model), modes=env_eval.planner.modes)
    evaluators = [
        MakespanEvaluator(comp, s.apply_platform(Platform()),
                          s.apply_exec_model(model))
        for s in scenarios]
    vars_ = [n.var for n in comp.nodes]
    checked = 0
    for assignment in generate_nondominated_thread_groups(8, comp):
        groups, lists = assignment_candidates(comp, assignment)
        for index, sizes in enumerate(product(*lists)):
            if index % 4:
                continue
            quick = env_bounds.quick_bound(sizes, assignment)
            if math.isinf(quick):
                continue
            refined = env_bounds.refine(quick, sizes, assignment)
            if math.isinf(refined):
                continue
            params = dict(zip(vars_, sizes))
            for evaluator in evaluators:
                truth = evaluator.evaluate_params(params, groups)
                if truth.feasible:
                    assert refined <= truth.makespan_ns, \
                        (sizes, assignment)
                    checked += 1
    assert checked > 0
