"""Resource-timeline tests: the TimeSeries store, the per-rank step
functions derived from an event stream, and the ASCII/SVG renderers."""

from __future__ import annotations

import pytest

from tests.golden_workloads import CONTROLLERS, run_workload
from repro.obs import ListSink, ascii_timeline, resource_timelines, svg_timeline
from repro.obs.metrics import TimeSeries


class TestTimeSeries:
    def test_step_function_semantics(self):
        ts = TimeSeries()
        ts.sample(1.0, 2.0)
        ts.sample(3.0, 5.0)
        assert ts.value_at(0.5) == 0.0  # before first sample
        assert ts.value_at(1.0) == 2.0
        assert ts.value_at(2.9) == 2.0
        assert ts.value_at(3.0) == 5.0
        assert ts.value_at(99.0) == 5.0
        assert ts.final == 5.0
        assert ts.max() == 5.0

    def test_empty_series_defaults(self):
        ts = TimeSeries()
        assert ts.final == 0.0
        assert ts.max() == 0.0
        assert ts.max(default=-1.0) == -1.0
        assert ts.value_at(10.0) == 0.0
        assert ts.integral(5.0) == 0.0
        assert ts.mean(5.0) == 0.0

    def test_equal_time_samples_collapse_to_last_write(self):
        ts = TimeSeries()
        ts.sample(1.0, 1.0)
        ts.sample(1.0, 7.0)
        assert ts.to_dict() == {"t": [1.0], "v": [7.0]}

    def test_out_of_order_sample_raises(self):
        ts = TimeSeries()
        ts.sample(2.0, 1.0)
        with pytest.raises(ValueError):
            ts.sample(1.0, 1.0)

    def test_integral_and_mean_are_time_weighted(self):
        ts = TimeSeries()
        ts.sample(0.0, 2.0)
        ts.sample(1.0, 4.0)
        # [0,1): 2.0, [1,2): 4.0 -> integral 6.0, mean 3.0
        assert ts.integral(2.0) == pytest.approx(6.0)
        assert ts.mean(2.0) == pytest.approx(3.0)
        # Truncation mid-step.
        assert ts.integral(0.5) == pytest.approx(1.0)


@pytest.fixture(scope="module")
def mpi_run():
    g, sink, result = run_workload(CONTROLLERS["mpi"]())
    return g, sink.events, result


class TestResourceTimelines:
    def test_shape_and_makespan(self, mpi_run):
        _, events, result = mpi_run
        tl = resource_timelines(events)
        assert tl.n_procs == 6
        assert tl.makespan == pytest.approx(result.stats.makespan)
        assert len(tl.busy) == len(tl.queue_depth) == len(tl.mem_bytes) == 6

    def test_utilization_bounded_and_positive(self, mpi_run):
        _, events, _ = mpi_run
        tl = resource_timelines(events)
        for p in range(tl.n_procs):
            assert 0.0 <= tl.utilization(p) <= 1.0
        assert 0.0 < tl.utilization_mean() <= 1.0
        assert tl.idle_fraction() == pytest.approx(
            1.0 - tl.utilization_mean()
        )

    def test_busy_intervals_are_disjoint_and_in_range(self, mpi_run):
        _, events, _ = mpi_run
        tl = resource_timelines(events)
        for p in range(tl.n_procs):
            last_end = -1.0
            for s, e in tl.busy[p]:
                assert s > last_end  # merged union: strictly disjoint
                assert e >= s
                assert e <= tl.makespan + 1e-12
                last_end = e

    def test_queues_drain_to_zero(self, mpi_run):
        """Every enqueued task eventually dispatches, so each rank's
        run-queue depth ends at 0."""
        _, events, _ = mpi_run
        tl = resource_timelines(events)
        for p in range(tl.n_procs):
            assert tl.queue_depth[p].final == 0.0
            assert tl.queue_depth[p].max() >= 0.0
        assert tl.queue_depth_peak() >= 1.0

    def test_memory_released_when_tasks_start(self, mpi_run):
        """Buffered input bytes return to zero once every consumer has
        dispatched (the simulator drops slot refs at first dispatch)."""
        _, events, _ = mpi_run
        tl = resource_timelines(events)
        assert tl.mem_bytes_peak() > 0.0
        for p in range(tl.n_procs):
            assert tl.mem_bytes[p].final == 0.0

    def test_links_drain_in_flight_bytes(self, mpi_run):
        _, events, _ = mpi_run
        tl = resource_timelines(events)
        assert tl.inflight_bytes  # cross-proc reduction must message
        assert tl.inflight_bytes_peak() > 0.0
        for (src, dst), ts in tl.inflight_bytes.items():
            assert src != dst
            assert ts.final == 0.0  # all sends were delivered

    def test_chaos_run_stays_well_formed(self):
        """Rank death clamps that rank's series to zero, never negative."""
        _, sink, _ = run_workload(CONTROLLERS["mpi_chaos"]())
        tl = resource_timelines(sink.events)
        for p in range(tl.n_procs):
            assert all(v >= 0.0 for v in tl.queue_depth[p].values)
            assert all(v >= 0.0 for v in tl.mem_bytes[p].values)
            assert tl.queue_depth[p].final == 0.0

    def test_charm_migrations_balance_queue_accounting(self):
        _, sink, _ = run_workload(CONTROLLERS["charm"]())
        tl = resource_timelines(sink.events)
        for p in range(tl.n_procs):
            assert all(v >= 0.0 for v in tl.queue_depth[p].values)
            assert tl.queue_depth[p].final == 0.0

    def test_empty_stream(self):
        tl = resource_timelines([])
        assert tl.n_procs == 0
        assert tl.makespan == 0.0
        assert tl.queue_depth_peak() == 0.0
        assert tl.inflight_bytes_peak() == 0.0


@pytest.fixture(scope="module")
def mergetree_64():
    from repro.analysis.mergetree import MergeTreeWorkload
    from repro.data import hcci_proxy

    field = hcci_proxy((48, 48, 48), n_features=40, feature_sigma=2.0, seed=2018)
    return MergeTreeWorkload(field, 64, 0.45, valence=4)


@pytest.mark.parametrize("runtime", ["mpi", "charm"])
def test_one_definition_of_busy(mergetree_64, runtime):
    """The timeline over a run's kept events and the run's own gauges
    measure busy the same way: compute plus charged runtime overhead."""
    from repro.runtimes import CharmController, MPIController

    ctor = {"mpi": MPIController, "charm": CharmController}[runtime]
    wl = mergetree_64
    sink = ListSink()
    result = wl.run(ctor(16, cost_model=wl.cost_model(), sinks=[sink]))
    tl = resource_timelines(sink.events)
    m = result.metrics
    assert tl.utilization_mean() == pytest.approx(
        m.gauge("utilization_mean"), abs=1e-12
    )
    assert tl.imbalance() == pytest.approx(m.gauge("imbalance"), abs=1e-12)
    assert tl.imbalance() > 1.0


class TestRenderers:
    def test_ascii_timeline_shape(self, mpi_run):
        _, events, _ = mpi_run
        out = ascii_timeline(events, width=40)
        lines = out.splitlines()
        # Header + one row per rank + summary footer.
        assert len(lines) == 1 + 6 + 1
        for p in range(6):
            row = lines[1 + p]
            assert row.startswith(f"p{p}")
            bar = row[row.index("|") + 1 : row.rindex("|")]
            assert len(bar) == 40
            assert set(bar) <= {"#", "+", "."}
            assert "#" in bar  # every rank computed something
        assert "mean utilization" in lines[-1]

    def test_ascii_timeline_elides_extra_ranks(self, mpi_run):
        _, events, _ = mpi_run
        out = ascii_timeline(events, width=20, max_procs=2)
        assert "4 more ranks elided" in out

    def test_ascii_timeline_empty(self):
        assert ascii_timeline([]) == "(empty run)"

    def test_svg_timeline_is_valid_svg(self, mpi_run):
        _, events, _ = mpi_run
        svg = svg_timeline(events)
        assert svg.startswith("<svg ") and svg.endswith("</svg>")
        assert svg.count("<rect ") > 6  # lanes + at least some slices
        assert "makespan" in svg
        for p in range(6):
            assert f">p{p}</text>" in svg
