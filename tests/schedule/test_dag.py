"""The explicit phase DAG must agree with the fast pipeline recurrence."""

import pytest

from repro.kernels import make_kernel
from repro.loopir import LoopTree
from repro.loopir.component import component_at
from repro.opt.solution import Solution
from repro.prem.segments import CoreSchedule, SegmentPlanner
from tests.schedule.dag import build_phase_dag, dag_makespan
from repro.schedule.pipeline import evaluate_pipeline
from repro.sim.profiler import fit_component_model
from repro.timing.platform import Platform

BIG_SPM = Platform(spm_bytes=4 * 1024 * 1024)


@pytest.fixture(scope="module")
def lstm_plans():
    tree = LoopTree.build(make_kernel("lstm", "LARGE"))
    comp = component_at(tree, ["s1_0", "p"])
    model = fit_component_model(comp)
    planner = SegmentPlanner(comp, BIG_SPM, model)
    solutions = [
        Solution(comp, {"s1_0": 109, "p": 350}, {"s1_0": 3, "p": 1}),
        Solution(comp, {"s1_0": 82, "p": 700}, {"s1_0": 8, "p": 1}),
        Solution(comp, {"s1_0": 650, "p": 100}),
        Solution(comp, {"s1_0": 50, "p": 175}, {"s1_0": 2, "p": 1}),
    ]
    return [planner.plan(s) for s in solutions]


def test_dag_matches_pipeline_on_lstm(lstm_plans):
    for plan in lstm_plans:
        fast = evaluate_pipeline(plan.cores).makespan_ns
        exact = dag_makespan(plan.cores)
        assert fast == pytest.approx(exact, rel=1e-9), \
            plan.solution.describe()


def test_dag_matches_pipeline_on_cnn():
    tree = LoopTree.build(make_kernel("cnn", "LARGE"))
    comp = component_at(tree, ["n", "k", "p", "q", "c"])
    model = fit_component_model(comp)
    planner = SegmentPlanner(comp, Platform(), model)
    plan = planner.plan(Solution(
        comp, {"n": 1, "k": 32, "p": 7, "q": 28, "c": 16},
        {"n": 1, "k": 4, "p": 2, "q": 1, "c": 1}))
    assert evaluate_pipeline(plan.cores).makespan_ns == \
        pytest.approx(dag_makespan(plan.cores), rel=1e-9)


def test_dag_node_kinds(lstm_plans):
    graph = build_phase_dag(lstm_plans[0].cores)
    kinds = {node[0] for node in graph.nodes}
    assert kinds == {"init", "exec", "mem"}
    # one init per core, 4 exec phases per core
    inits = [n for n in graph.nodes if n[0] == "init"]
    execs = [n for n in graph.nodes if n[0] == "exec"]
    assert len(inits) == 3
    assert len(execs) == 12


def test_dag_is_acyclic(lstm_plans):
    import networkx as nx
    for plan in lstm_plans:
        assert nx.is_directed_acyclic_graph(build_phase_dag(plan.cores))


def test_empty_cores():
    assert dag_makespan([]) == 0.0
    idle = CoreSchedule(core=0, n_segments=0, init_api_ns=0.0,
                        exec_ns=[], mem_slot_ns=[0.0, 0.0], dep_slot=[])
    assert dag_makespan([idle]) == 0.0
