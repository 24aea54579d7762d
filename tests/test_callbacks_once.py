"""A simulated run executes each task's callback exactly once.

The simulated backends split a run into a callback pass, which runs every
callback once, and a timing pass, which prices the run in virtual time
from the callback pass's durations and payload sizes (see
``repro.runtimes.simbase``).  These tests count callback calls per task
id on every simulated backend — clean, with transient retries, with a
rank death that kills attempts in flight or loses finished outputs, and
across the recording, lowered and guard-miss runs of ``compile=True`` —
and check the outputs against the serial reference each time.  The second half
pins where a failing callback's error surfaces: sinks hear a prefix of
the clean run's event stream, the failing task's ``task_enqueued`` and
none of its attempt events, then ``abort`` with the callback's own
exception.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.errors import CallbackError
from repro.core.payload import Payload
from repro.faults import FaultPlan, RankDeath
from repro.graphs import Reduction
from repro.obs import ListSink
from repro.obs.events import TASK_ENQUEUED, TASK_FINISHED, TASK_STARTED
from repro.runtimes import (
    BlockingMPIController,
    CharmController,
    LegionIndexController,
    LegionSPMDController,
    MPIController,
    SerialController,
)
from repro.runtimes.costs import CallableCost
from repro.sched.compile import PLAN_CACHE

BACKENDS = {
    "mpi": MPIController,
    "blocking-mpi": BlockingMPIController,
    "charm": CharmController,
    "legion-spmd": LegionSPMDController,
    "legion-index": LegionIndexController,
}

RANKS = 4


def _cost(task, inputs):
    return 0.004 + 1e-9 * sum(p.nbytes for p in inputs)


class Counted:
    """The reduction's callbacks, counting calls per task id."""

    def __init__(self, graph, fail=None):
        self.graph = graph
        self.calls = Counter()
        self.fail = fail  # (task id, callback) replacing REDUCE there

    def leaf(self, ins, tid):
        self.calls[tid] += 1
        return [Payload(list(ins[0].data))]

    def reduce(self, ins, tid):
        self.calls[tid] += 1
        if self.fail is not None and tid == self.fail[0]:
            return self.fail[1](ins, tid)
        merged = []
        for p in ins:
            merged.extend(p.data)
        return [Payload(merged)]

    def register(self, controller):
        g = self.graph
        controller.register_callback(g.LEAF, self.leaf)
        controller.register_callback(g.REDUCE, self.reduce)
        controller.register_callback(g.ROOT, self.reduce)


def _inputs(graph, pad=0):
    return {
        tid: Payload([float(tid)] * (1 + tid % 3 + (pad if tid == last else 0)))
        for last in [max(graph.leaf_ids())]
        for tid in graph.leaf_ids()
    }


def _run(controller, graph, inputs, fail=None):
    counted = Counted(graph, fail)
    controller.initialize(graph)
    counted.register(controller)
    result = controller.run(inputs)
    return result, counted.calls


def _flat(result):
    return {
        (tid, ch): p.data
        for tid, by_ch in result.outputs.items()
        for ch, p in by_ch.items()
    }


def _assert_once(graph, inputs, result, calls):
    assert calls == Counter({tid: 1 for tid in graph.task_ids()})
    reference, _ = _run(SerialController(), graph, inputs)
    assert _flat(result) == _flat(reference)


def _sim(name, **kwargs):
    return BACKENDS[name](RANKS, cost_model=CallableCost(_cost), **kwargs)


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_a_clean_run_calls_each_task_once(name):
    g = Reduction(16, 2)
    inputs = _inputs(g)
    result, calls = _run(_sim(name), g, inputs)
    _assert_once(g, inputs, result, calls)


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_transient_retries_do_not_call_again(name):
    g = Reduction(16, 2)
    inputs = _inputs(g)
    reduce = min(t for t in g.task_ids() if g.task(t).callback == g.REDUCE)
    faults = {min(g.leaf_ids()): 2, reduce: 1, g.root_id: 1}
    controller = _sim(name, fault_plan=FaultPlan(task_faults=faults))
    result, calls = _run(controller, g, inputs)
    assert controller.retries == 4
    _assert_once(g, inputs, result, calls)


#: Constant task seconds: at 0.01 the death kills attempts in flight,
#: which run again on a survivor; at 0.005 it also loses finished
#: producers' outputs, which lineage replay re-sends.
DEATH_COSTS = {"in-flight": 0.01, "lineage": 0.005}


@pytest.mark.parametrize("seconds", sorted(DEATH_COSTS))
@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_a_rank_death_recovers_without_calling_again(name, seconds):
    g = Reduction(8, 2)
    inputs = _inputs(g)
    controller = BACKENDS[name](
        RANKS,
        cost_model=CallableCost(lambda task, ins: DEATH_COSTS[seconds]),
        fault_plan=FaultPlan(rank_deaths=[RankDeath(2, at=0.015)]),
    )
    result, calls = _run(controller, g, inputs)
    counters = result.metrics.counters
    assert counters["rank_deaths"] == 1 and counters["tasks_migrated"] >= 1
    assert (counters["tasks_replayed"] > 0) is (seconds == "lineage")
    _assert_once(g, inputs, result, calls)


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_compiled_runs_call_each_task_once(name):
    """Recording, lowered, then a guard miss: the last leaf grows, so
    its size no longer matches the record."""
    g = Reduction(8, 2)
    PLAN_CACHE.clear()
    for pad in (0, 0, 0, 3):
        inputs = _inputs(g, pad)
        result, calls = _run(_sim(name, compile=True), g, inputs)
        _assert_once(g, inputs, result, calls)


# ---------------------------------------------------------------------- #
# Where a failing callback's error surfaces
# ---------------------------------------------------------------------- #


class AbortSink(ListSink):
    def __init__(self):
        super().__init__()
        self.aborts = []

    def abort(self, exc=None):
        self.aborts.append(exc)


def _raise(ins, tid):
    raise ValueError(f"task {tid} failed")


def _wrong_arity(ins, tid):
    return [ins[0], ins[0]]


@pytest.mark.parametrize("fail", [_raise, _wrong_arity], ids=["raises", "arity"])
@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_a_failing_callback_aborts_on_a_prefix_of_the_clean_stream(name, fail):
    g = Reduction(16, 2)
    inputs = _inputs(g)
    clean = ListSink()
    _run(_sim(name, sinks=[clean]), g, inputs)
    failing = min(t for t in g.task_ids() if g.task(t).callback == g.REDUCE)
    sink = AbortSink()
    with pytest.raises((ValueError, CallbackError)) as err:
        _run(_sim(name, sinks=[sink]), g, inputs, fail=(failing, fail))
    assert sink.aborts == [err.value]
    if fail is _raise:
        assert type(err.value) is ValueError
        assert str(err.value) == f"task {failing} failed"
    else:
        assert type(err.value) is CallbackError
        assert f"task {failing} " in str(err.value)
    events = [e.to_dict() for e in sink.events]
    assert events == [e.to_dict() for e in clean.events[: len(events)]]
    own = [e.type for e in sink.events if e.task == failing]
    assert own.count(TASK_ENQUEUED) == 1
    assert TASK_STARTED not in own and TASK_FINISHED not in own
