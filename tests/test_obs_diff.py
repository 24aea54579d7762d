"""Trace-diff tests: a seeded regression must be *named* — the slowed
task, the phase that moved, and the critical-path bucket the delta
belongs to (the perf harness's ``--check`` attribution path)."""

from __future__ import annotations

import pytest

from benchmarks.perf.suite import capture_trace
from repro.obs import (
    diff_runs,
    diff_traces,
    load_events,
    render_diff,
)
from repro.obs.cli import summarize_run

SLOW_TASK = 3
SLOW_FACTOR = 50.0


@pytest.fixture(scope="module")
def trace_pair(tmp_path_factory):
    """A clean capture and one with task 3's compute inflated 50x."""
    d = tmp_path_factory.mktemp("traces")
    base = d / "base.jsonl"
    slow = d / "slow.jsonl"
    info_a = capture_trace("controller_tasks", str(base), leaves=64)
    info_b = capture_trace(
        "controller_tasks", str(slow),
        slow_task=SLOW_TASK, slow_factor=SLOW_FACTOR, leaves=64,
    )
    return load_events(str(base)), load_events(str(slow)), info_a, info_b


def test_capture_trace_reports_run_facts(trace_pair):
    _, _, info_a, info_b = trace_pair
    assert info_a["tasks"] == info_b["tasks"]
    assert info_b["makespan"] > info_a["makespan"]


def test_injected_slowdown_names_the_task(trace_pair):
    events_a, events_b, *_ = trace_pair
    d = diff_runs(events_a, events_b)
    assert d.makespan_delta > 0
    assert d.makespan_b / d.makespan_a > 1.0
    task, delta = d.task_deltas()[0]
    assert delta > 0
    assert task == SLOW_TASK
    a, b = d.tasks[SLOW_TASK]
    assert b == pytest.approx(a * SLOW_FACTOR)
    assert delta == pytest.approx(a * (SLOW_FACTOR - 1.0))


def test_injected_slowdown_attributes_to_compute(trace_pair):
    events_a, events_b, *_ = trace_pair
    d = diff_runs(events_a, events_b)
    assert d.dominant_bucket() == "compute"
    # The compute phase moved by exactly the injected inflation.
    phase_delta = dict(d.phase_deltas())
    a, _ = d.tasks[SLOW_TASK]
    assert phase_delta["compute"] == pytest.approx(
        a * (SLOW_FACTOR - 1.0), rel=1e-6
    )


def test_identical_traces_diff_to_nothing(trace_pair):
    events_a, *_ = trace_pair
    d = diff_runs(events_a, events_a)
    assert d.makespan_delta == 0.0
    assert d.task_deltas()[0][1] == 0.0
    assert not d.new_tasks and not d.removed_tasks
    assert all(abs(v) == 0.0 for v in d.attribution().values())


def test_render_diff_mentions_culprit(trace_pair):
    events_a, events_b, *_ = trace_pair
    out = render_diff(diff_runs(events_a, events_b))
    assert f"t{SLOW_TASK}" in out
    assert "dominant: compute" in out
    assert "makespan" in out and "->" in out
    # No fault activity on either side: the recovery block is absent.
    assert "fault/recovery" not in out


def test_diff_traces_pairs_runs_positionally(trace_pair):
    events_a, events_b, *_ = trace_pair
    diffs = diff_traces(events_a, events_b)
    assert len(diffs) == 1
    assert diffs[0].task_deltas()[0][0] == SLOW_TASK


def test_new_and_removed_tasks_detected(trace_pair, tmp_path):
    events_a, *_ = trace_pair
    small = tmp_path / "small.jsonl"
    capture_trace("controller_tasks", str(small), leaves=16)
    events_small = load_events(str(small))
    d = diff_runs(events_a, events_small)
    assert d.removed_tasks  # the 64-leaf run has tasks the 16-leaf lacks
    assert not d.new_tasks
    assert "removed tasks" in render_diff(d)


def test_summarize_run_attributes_a_single_run(trace_pair):
    _, events_b, *_ = trace_pair
    out = summarize_run(events_b, 0, 5)
    assert "where the time went" in out
    longest = out.split("tasks by compute time:\n", 1)[1].splitlines()[0]
    assert longest.split()[0] == f"t{SLOW_TASK}"  # the inflated task
    assert "critical path (" in out


def test_capture_trace_rejects_untraceable():
    with pytest.raises(ValueError):
        capture_trace("engine_events", "/tmp/never-written.jsonl")
