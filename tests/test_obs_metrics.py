"""Always-on metrics: instrument semantics and snapshot consistency with
the event stream / kept trace across the runtime families."""

import pytest

from repro.core.payload import Payload
from repro.graphs import Reduction
from repro.obs import Counter, Gauge, Histogram, ListSink, MetricsRegistry
from repro.runtimes import (
    CharmController,
    LegionSPMDController,
    MPIController,
    SerialController,
)

FAMILIES = [
    ("serial", SerialController),
    ("mpi", lambda: MPIController(4, sinks=[ListSink()])),
    ("charm", lambda: CharmController(4, sinks=[ListSink()])),
    ("legion-spmd", lambda: LegionSPMDController(4, sinks=[ListSink()])),
]


def run_reduction(controller):
    g = Reduction(16, 4)
    controller.initialize(g, None)
    controller.register_callback(g.LEAF, lambda ins, tid: [ins[0]])
    add = lambda ins, tid: [Payload(sum(p.data for p in ins))]
    controller.register_callback(g.REDUCE, add)
    controller.register_callback(g.ROOT, add)
    return g, controller.run(
        {t: Payload(i + 1) for i, t in enumerate(g.leaf_ids())}
    )


class TestInstruments:
    def test_counter(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_gauge(self):
        g = Gauge()
        g.set(2.0)
        g.set_max(1.0)
        assert g.value == 2.0
        g.set_max(3.0)
        assert g.value == 3.0

    def test_histogram_exact_aggregates(self):
        h = Histogram()
        for x in (0.0, 0.5, 1.5, 3.0, 3.0):
            h.observe(x)
        assert h.count == 5
        assert h.total == pytest.approx(8.0)
        assert h.mean == pytest.approx(1.6)
        assert (h.min, h.max) == (0.0, 3.0)

    def test_histogram_log2_buckets(self):
        h = Histogram()
        h.observe(0.0)  # zero bucket
        h.observe(0.5)  # [0.5, 1)  -> 2**0
        h.observe(1.5)  # [1, 2)    -> 2**1
        h.observe(3.0)  # [2, 4)    -> 2**2
        h.observe(3.5)
        snap = h.snapshot()
        assert snap["buckets"] == {0.0: 1, 1.0: 1, 2.0: 1, 4.0: 2}

    def test_empty_histogram_snapshot(self):
        snap = Histogram().snapshot()
        assert snap["count"] == 0
        assert snap["min"] == 0.0 and snap["max"] == 0.0

    def test_registry_get_or_create(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")
        assert r.gauge("b") is r.gauge("b")
        assert r.histogram("c") is r.histogram("c")
        assert r.sketch("d") is r.sketch("d")
        r.counter("a").inc(2)
        snap = r.snapshot()
        assert snap.counter("a") == 2
        assert snap.counter("missing", -1) == -1
        assert "a = 2" in snap.summary()

    def test_sketch_snapshot_and_quantile_readback(self):
        r = MetricsRegistry()
        sk = r.sketch("task_seconds", rel_err=0.01)
        for x in range(1, 1001):
            sk.observe(x / 1000.0)
        snap = r.snapshot()
        d = snap.sketches["task_seconds"]
        assert d["count"] == 1000
        # Precomputed keys answer the common quantiles directly...
        assert snap.quantile("task_seconds", 0.99) == d["p99"]
        assert d["p99"] == pytest.approx(0.991, rel=0.011)
        # ...and arbitrary q rebuilds the sketch.
        assert snap.quantile("task_seconds", 0.75) == pytest.approx(
            0.75, rel=0.011
        )
        assert snap.quantile("missing", 0.99, default=-1.0) == -1.0
        assert "task_seconds: n=1000" in snap.summary()

    def test_registry_without_sketches_snapshots_empty(self):
        snap = MetricsRegistry().snapshot()
        assert snap.sketches == {}


class TestTimeSeriesDecimation:
    def make(self, n, max_samples=None):
        from repro.obs.metrics import TimeSeries

        ts = TimeSeries(max_samples)
        for i in range(n):
            ts.sample(float(i), float(i * 10))
        return ts

    def test_default_is_unbounded(self):
        ts = self.make(5000)
        assert len(ts) == 5000

    def test_bounded_series_stays_bounded(self):
        ts = self.make(5000, max_samples=64)
        assert len(ts) <= 64

    def test_survivors_keep_exact_pairs_and_endpoints(self):
        ts = self.make(1000, max_samples=50)
        assert ts.times[0] == 0.0 and ts.values[0] == 0.0
        assert ts.times[-1] == 999.0 and ts.values[-1] == 9990.0
        for t, v in zip(ts.times, ts.values):
            assert v == t * 10  # exact original pairs, never interpolated
        assert ts.times == sorted(ts.times)
        assert ts.final == 9990.0

    def test_decimation_is_deterministic(self):
        a, b = self.make(777, max_samples=32), self.make(777, max_samples=32)
        assert a.times == b.times and a.values == b.values

    def test_step_semantics_survive(self):
        ts = self.make(100, max_samples=16)
        # value_at between retained steps returns the preceding survivor.
        i = len(ts.times) // 2
        mid = (ts.times[i] + ts.times[i + 1]) / 2
        assert ts.value_at(mid) == ts.values[i]

    def test_max_samples_validated(self):
        from repro.obs.metrics import TimeSeries

        with pytest.raises(ValueError, match="max_samples"):
            TimeSeries(1)

    def test_registry_threads_max_samples(self):
        r = MetricsRegistry()
        ts = r.timeseries("queue_depth", max_samples=8)
        for i in range(100):
            ts.sample(float(i), 1.0)
        assert len(r.timeseries("queue_depth")) <= 8


@pytest.mark.parametrize(
    "ctor", [f[1] for f in FAMILIES], ids=[f[0] for f in FAMILIES]
)
class TestSnapshotConsistency:
    """The snapshot must agree with the other sources of truth: stats,
    the kept trace, and the event stream."""

    def test_counts_match_spans_and_events(self, ctor):
        sink = ListSink()
        c = ctor()
        c.add_sink(sink)
        g, result = run_reduction(c)
        m = result.metrics
        assert m is not None

        assert m.counter("tasks_executed") == g.size()
        assert m.counter("tasks_executed") == result.stats.tasks_executed
        assert m.counter("messages_sent") == result.stats.messages
        assert m.counter("bytes_sent") == result.stats.bytes_sent
        assert m.counter("retries") == 0

        # One task_finished event and one latency sample per task.
        finished = sink.by_type("task_finished")
        assert len(finished) == g.size()
        assert m.histograms["task_compute_seconds"]["count"] == g.size()

        # One message_sent event and one size sample per dataflow message.
        assert len(sink.by_type("message_sent")) == result.stats.messages
        assert m.histograms["message_nbytes"]["count"] == result.stats.messages

        # The kept trace (when the ctor attached one) is the same stream.
        for kept in c._sinks:
            assert kept.events == sink.events

    def test_gauges_are_sane(self, ctor):
        c = ctor()
        _, result = run_reduction(c)
        m = result.metrics
        assert m.gauge("queue_depth_peak") >= 1
        assert 0.0 < m.gauge("utilization_mean") <= 1.0
        assert (
            m.gauge("utilization_min")
            <= m.gauge("utilization_mean")
            <= m.gauge("utilization_max") + 1e-12
        )
        assert m.gauge("imbalance") >= 1.0 - 1e-12

    def test_metrics_collected_without_sinks(self, ctor):
        """Metrics are always on — no sinks, no tracing needed."""
        c = ctor()
        c._sinks.clear()
        _, result = run_reduction(c)
        assert result.metrics is not None
        assert result.metrics.counter("tasks_executed") == 21


class TestCharmExtras:
    def test_migration_counters_in_snapshot(self):
        from repro.runtimes import DEFAULT_COSTS
        from repro.runtimes.costs import CallableCost
        from repro.graphs import DataParallel

        heavy = CallableCost(lambda t, i: 1.0 if t.id % 4 == 0 else 0.001)
        c = CharmController(
            4, costs=DEFAULT_COSTS.with_(charm_lb_period=0.1), cost_model=heavy
        )
        g = DataParallel(64)
        c.initialize(g)
        c.register_callback(g.WORK, lambda ins, tid: [ins[0]])
        result = c.run({t: Payload(1) for t in range(64)})
        m = result.metrics
        assert m.counter("migrations") == c.migrations > 0
        assert m.counter("lb_rounds") == c.lb_rounds > 0


class TestSnapshotToDict:
    def test_to_dict_is_json_able_and_complete(self):
        import json

        c = MPIController(4, telemetry=True)
        _, result = run_reduction(c)
        doc = json.loads(json.dumps(result.metrics.to_dict()))
        assert doc["counters"]["tasks_executed"] == 21
        assert "task_compute_seconds" in doc["histograms"]
        assert "task_seconds" in doc["sketches"]
        # Per-sample series stay out of the poll-friendly form.
        assert "timeseries" not in doc
