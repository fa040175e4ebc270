"""Gantt renderer tests: spans must replay the pipeline exactly."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.prem.segments import CoreSchedule
from tests.schedule.dag import dag_makespan
from repro.schedule.gantt import render_gantt, schedule_spans
from repro.schedule.pipeline import evaluate_pipeline


def make_core(core, exec_ns, mem_ns, init=10.0):
    n = len(exec_ns)
    assert len(mem_ns) == n + 2
    return CoreSchedule(
        core=core, n_segments=n, init_api_ns=init,
        exec_ns=list(exec_ns), mem_slot_ns=list(mem_ns),
        dep_slot=[s if mem_ns[s - 1] > 0 else 0
                  for s in range(1, n + 1)])


class TestSpans:
    def test_last_span_is_makespan(self):
        cores = [make_core(0, [50, 60, 70], [5, 5, 5, 0, 8]),
                 make_core(1, [40, 40], [3, 3, 0, 6])]
        spans = schedule_spans(cores)
        pipeline = evaluate_pipeline(cores)
        assert max(s.end_ns for s in spans) == \
            pytest.approx(pipeline.makespan_ns)

    def test_span_counts(self):
        cores = [make_core(0, [50, 60], [5, 5, 0, 8])]
        spans = schedule_spans(cores)
        kinds = {}
        for span in spans:
            kinds[span.kind] = kinds.get(span.kind, 0) + 1
        assert kinds == {"init": 1, "exec": 2, "mem": 3}

    def test_exec_spans_sequential_per_core(self):
        cores = [make_core(0, [50, 60, 70], [5, 5, 5, 0, 8])]
        execs = [s for s in schedule_spans(cores) if s.kind == "exec"]
        for before, after in zip(execs, execs[1:]):
            assert after.start_ns >= before.end_ns - 1e-9

    def test_mem_spans_never_overlap(self):
        cores = [make_core(i, [50, 60], [5, 5, 0, 8]) for i in range(3)]
        mems = sorted((s for s in schedule_spans(cores)
                       if s.kind == "mem"), key=lambda s: s.start_ns)
        for before, after in zip(mems, mems[1:]):
            assert after.start_ns >= before.end_ns - 1e-9

    def test_empty(self):
        assert schedule_spans([]) == []


class TestRender:
    def test_render_contains_all_lanes(self):
        cores = [make_core(i, [100, 100], [10, 10, 0, 10])
                 for i in range(2)]
        text = render_gantt(cores, width=60)
        assert "core 0" in text and "core 1" in text and "dma" in text
        assert "|" in text

    def test_render_empty(self):
        assert "empty" in render_gantt([])


@settings(max_examples=30, deadline=None)
@given(st.lists(
    st.tuples(
        st.lists(st.floats(min_value=1.0, max_value=500.0),
                 min_size=1, max_size=5),
        st.floats(min_value=0.0, max_value=100.0)),
    min_size=1, max_size=4))
def test_spans_consistent_with_dag(core_specs):
    """On random schedules, the replayed span horizon equals both the
    pipeline recurrence and the explicit DAG longest path."""
    cores = []
    for index, (exec_ns, mem) in enumerate(core_specs):
        n = len(exec_ns)
        mem_ns = [mem] * n + [0.0, mem]
        cores.append(make_core(index, exec_ns, mem_ns))
    spans = schedule_spans(cores)
    horizon = max(s.end_ns for s in spans)
    assert horizon == pytest.approx(evaluate_pipeline(cores).makespan_ns)
    assert horizon == pytest.approx(dag_makespan(cores))
