"""One platform-free ``TileGeometry`` per component, shared by every consumer.

The contracts under test: every planner, bound calculator, macro
builder and verifier footprint pass of one compile reads the very
``component.geometry`` object; the geometry holds no platform and no
execution model; and two planners on different platforms see equal
range shapes and bytes but price them differently.
"""

import inspect
from itertools import product

import pytest

from repro.analysis import model as analysis_model
from repro.compiler import PremCompiler
from repro.kernels import make_kernel
from repro.loopir import LoopTree
from repro.loopir.component import component_at
from repro.opt.bounds import BoundCalculator
from repro.opt.exhaustive import assignment_candidates
from repro.opt.threadgroups import generate_nondominated_thread_groups
from repro.prem.macros import MacroBuilder
from repro.prem.segments import SegmentPlanner, TileGeometry
from repro.sim.profiler import fit_component_model
from repro.timing.execmodel import ExecModel
from repro.timing.platform import Platform

SCENARIOS = 4


def _log_calls(monkeypatch, owner, name, log, phase=None):
    """Wrap ``owner.name`` to append its first argument — ``self`` —
    to *log* on every call, as ``(phase[0], self)`` when *phase* is
    given."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        log.append(args[0] if phase is None else (phase[0], args[0]))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def _label_calls(monkeypatch, owner, name, phase, label):
    """Wrap ``owner.name`` to set ``phase[0]`` to *label* while it runs."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        previous, phase[0] = phase[0], label
        try:
            return original(*args, **kwargs)
        finally:
            phase[0] = previous

    monkeypatch.setattr(owner, name, wrapper)


@pytest.fixture(scope="module")
def robust_run():
    """A robust compile + ``generate_c`` + ``verify_static`` of rnn/MINI,
    with every geometry construction and read recorded."""
    monkeypatch = pytest.MonkeyPatch()
    built, planners, bounds, reads = [], [], [], []
    phase = ["compile"]
    try:
        _log_calls(monkeypatch, TileGeometry, "__init__", built)
        _log_calls(monkeypatch, SegmentPlanner, "__init__", planners)
        _log_calls(monkeypatch, BoundCalculator, "__init__", bounds)
        for method in ("key_vars", "bounding_shape"):
            _log_calls(monkeypatch, TileGeometry, method, reads, phase)
        _label_calls(monkeypatch, MacroBuilder, "__init__", phase, "macros")
        _label_calls(monkeypatch, analysis_model, "_compute_footprints",
                     phase, "footprints")
        result = PremCompiler(seed=0).compile(
            make_kernel("rnn", "MINI"), strategy="robust",
            scenarios=SCENARIOS)
        phase[0] = "generate_c"
        result.generate_c()
        phase[0] = "verify_static"
        report = result.verify_static()
    finally:
        monkeypatch.undo()
    return result, report, built, planners, bounds, reads


def test_one_geometry_per_component(robust_run):
    result, _, built, _, _, _ = robust_run
    assert result.components
    for compiled in result.components:
        component = compiled.component
        assert [g for g in built if g.component is component] \
            == [component.geometry]


def test_every_planner_and_bound_reads_the_component_geometry(robust_run):
    result, _, _, planners, bounds, _ = robust_run
    nominal = PremCompiler().platform
    for compiled in result.components:
        component = compiled.component
        mine = [p for p in planners if p.component is component]
        # The nominal evaluator, one per scenario and the verifier's.
        assert len({repr(p.platform) for p in mine}) >= SCENARIOS + 1
        assert all(p.geometry is component.geometry for p in mine)
        calcs = [b for b in bounds if b.component is component]
        # The nominal pruned search's and the envelope's.
        assert any(b.platform == nominal for b in calcs)
        assert any(b.platform != nominal for b in calcs)
        assert all(b.geometry is component.geometry for b in calcs)


@pytest.mark.parametrize("phase", ["macros", "footprints"])
def test_codegen_and_verifier_read_the_component_geometry(robust_run,
                                                          phase):
    result, report, _, _, _, reads = robust_run
    assert not report.has_errors
    for compiled in result.components:
        component = compiled.component
        used = {id(geometry) for seen, geometry in reads
                if seen == phase and geometry.component is component}
        assert used == {id(component.geometry)}


def _holds(value, kinds) -> bool:
    if isinstance(value, kinds):
        return True
    if isinstance(value, dict):
        return any(_holds(k, kinds) or _holds(v, kinds)
                   for k, v in value.items())
    if isinstance(value, (tuple, list, set, frozenset)):
        return any(_holds(item, kinds) for item in value)
    return False


def test_geometry_holds_no_platform_and_no_exec_model(robust_run):
    assert list(inspect.signature(TileGeometry).parameters) == ["component"]
    result = robust_run[0]
    for compiled in result.components:
        geometry = compiled.component.geometry
        state = {k: v for k, v in vars(geometry).items()
                 if k != "component"}
        assert any(state.values())            # the compile filled memos
        assert not _holds(state, (Platform, ExecModel))


def test_planners_share_shapes_but_price_their_own_platform():
    tree = LoopTree.build(make_kernel("rnn", "SMALL"))
    component = component_at(tree, ["s1", "p"])
    model = fit_component_model(component)
    fast = SegmentPlanner(component, Platform(), model)
    slow = SegmentPlanner(component, Platform().with_bus(1e9), model)
    assert fast.geometry is slow.geometry is component.geometry
    vars_ = [node.var for node in component.nodes]
    compared = 0
    for assignment in generate_nondominated_thread_groups(8, component):
        _, lists = assignment_candidates(component, assignment)
        for sizes in product(*lists):
            tile_sizes = dict(zip(vars_, sizes))
            for name in component.arrays():
                shape, nbytes = component.geometry.range_shape(
                    name, tile_sizes, tile_sizes)
                fast_ns, fast_bytes = fast.range_cost(
                    name, tile_sizes, tile_sizes)
                slow_ns, slow_bytes = slow.range_cost(
                    name, tile_sizes, tile_sizes)
                assert fast_bytes == slow_bytes == nbytes
                if shape:
                    assert slow_ns > fast_ns
                    compared += 1
    assert compared > 0


def test_plans_on_two_buses_move_the_same_bytes():
    compiled = PremCompiler().compile(
        make_kernel("rnn", "SMALL"), strategy="pruned").components[0]
    component, solution = compiled.component, compiled.solution
    model = fit_component_model(component)
    fast = SegmentPlanner(component, Platform(), model).plan(solution)
    slow = SegmentPlanner(
        component, Platform().with_bus(1e9), model).plan(solution)
    assert {n: p.bounding_shape for n, p in fast.array_plans.items()} \
        == {n: p.bounding_shape for n, p in slow.array_plans.items()}
    assert fast.total_transferred_bytes == slow.total_transferred_bytes > 0
    assert sum(c.mem_ns_total for c in slow.cores) \
        > sum(c.mem_ns_total for c in fast.cores)
