"""Profiling reports over a run's events: per-rank utilization, load
imbalance, the per-category table and the ASCII schedule."""

import pytest

from repro.core.payload import Payload
from repro.graphs import DataParallel, Reduction
from repro.obs.events import (
    MESSAGE_DELIVERED,
    OVERHEAD,
    TASK_FINISHED,
    Event,
    ListSink,
)
from repro.obs.timeline import ascii_timeline, resource_timelines
from repro.runtimes import MPIController
from repro.runtimes.costs import CallableCost
from repro.sim.trace import Stats


def make_trace():
    return [
        Event(TASK_FINISHED, 1.0, proc=0, task=0, dur=1.0, label="a"),
        Event(TASK_FINISHED, 0.5, proc=1, task=1, dur=0.5, label="b"),
        Event(MESSAGE_DELIVERED, 0.8, proc=0, dst_proc=1, dur=0.3),
    ]


class TestUtilization:
    def test_per_proc_fraction(self):
        tl = resource_timelines(make_trace())
        assert tl.utilization(0) == pytest.approx(1.0)
        assert tl.utilization(1) == pytest.approx(0.5)

    def test_empty_trace(self):
        tl = resource_timelines([])
        assert tl.n_procs == 0
        assert tl.utilization_mean() == 0.0

    def test_category_filter(self):
        # Busy is compute plus runtime overhead; a message in flight
        # occupies no core.
        events = make_trace() + [
            Event(OVERHEAD, 0.75, proc=1, dur=0.25, category="dispatch")
        ]
        tl = resource_timelines(events)
        assert tl.utilization(0) == pytest.approx(1.0)
        assert tl.utilization(1) == pytest.approx(0.75)


class TestImbalance:
    def test_balanced_is_one(self):
        events = [
            Event(TASK_FINISHED, 1.0, proc=p, task=p, dur=1.0) for p in (0, 1)
        ]
        assert resource_timelines(events).imbalance() == pytest.approx(1.0)

    def test_skewed(self):
        tl = resource_timelines(make_trace())
        assert tl.imbalance() == pytest.approx(1.0 / 0.75)

    def test_empty(self):
        assert resource_timelines([]).imbalance() == 0.0


class TestBreakdown:
    def test_table_contents(self):
        s = Stats()
        s.add("compute", 3.0)
        s.add("serialize", 1.0)
        text = s.breakdown()
        assert "compute" in text and "serialize" in text
        assert "75.0%" in text

    def test_empty(self):
        assert "no recorded" in Stats().breakdown()


def _row(text, proc):
    line = next(l for l in text.splitlines() if l.startswith(f"p{proc} "))
    return line.split("|")[1]


class TestGantt:
    def test_rows_and_fill(self):
        text = ascii_timeline(make_trace(), width=10)
        assert _row(text, 0).count("#") == 10  # busy the whole horizon
        assert 5 <= _row(text, 1).count("#") < 10

    def test_elision(self):
        text = ascii_timeline(make_trace(), width=10, max_procs=1)
        assert "1 more ranks elided" in text

    def test_empty(self):
        assert ascii_timeline([]) == "(empty run)"


class TestOnRealRun:
    def test_controller_trace_profiles(self):
        g = Reduction(16, 4)
        sink = ListSink()
        c = MPIController(4, sinks=[sink],
                          cost_model=CallableCost(lambda t, i: 0.01))
        c.initialize(g)
        c.register_callback(g.LEAF, lambda ins, tid: [ins[0]])
        add = lambda ins, tid: [Payload(sum(p.data for p in ins))]
        c.register_callback(g.REDUCE, add)
        c.register_callback(g.ROOT, add)
        r = c.run({t: Payload(1) for t in g.leaf_ids()})
        tl = resource_timelines(sink.events)
        assert all(tl.utilization(p) > 0 for p in range(4))
        assert tl.imbalance() >= 1.0
        assert "compute" in r.stats.breakdown()
        assert "#" in ascii_timeline(sink.events)

    def test_imbalance_detects_skew(self):
        g = DataParallel(8)
        skew = CallableCost(lambda t, i: 1.0 if t.id == 0 else 0.01)
        sink = ListSink()
        c = MPIController(8, sinks=[sink], cost_model=skew)
        c.initialize(g)
        c.register_callback(g.WORK, lambda ins, tid: [ins[0]])
        c.run({t: Payload(1) for t in range(8)})
        assert resource_timelines(sink.events).imbalance() > 4.0
