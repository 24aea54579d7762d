"""The service's observability plane: fingerprint-keyed cache
accounting, SLO enforcement, live snapshots, and Prometheus export.
"""

import threading
import time

import pytest

import repro
from benchmarks.smoke.service_mix import exposition_defects
from repro.core.payload import Payload
from repro.core.taskmap import ModuloMap
from repro.graphs import Reduction
from repro.obs.events import SERVICE_VOCABULARY, ListSink
from repro.obs.live.status import find_status, read_status
from repro.obs.live.watch import render_status
from repro.obs.live.serve import prometheus_text
from repro.sched.compile import PLAN_CACHE
from repro.service import RunRequest, RunService, ServiceClosed
from repro.service.service import _COUNTERS, eval_spec


def reduction_spec(scale=1):
    g = Reduction(16, 4)
    add = lambda ins, tid: [Payload(sum(p.data for p in ins))]
    callbacks = {g.LEAF: lambda ins, tid: [ins[0]], g.REDUCE: add, g.ROOT: add}
    inputs = {t: Payload((i + 1) * scale) for i, t in enumerate(g.leaf_ids())}
    return g, callbacks, inputs


class TestCacheAccounting:
    def test_plan_cache_hits_are_fingerprint_keyed(self):
        PLAN_CACHE.clear()
        g, cb, ins = reduction_spec()
        task_map = ModuloMap(4, g.size())
        mk = lambda scale: RunRequest(
            g, cb,
            {t: Payload((i + 1) * scale)
             for i, t in enumerate(g.leaf_ids())},
            runtime="mpi", n_procs=4,
            options={"task_map": task_map, "compile": True},
        )
        with RunService(workers=1) as svc:
            svc.submit(mk(1)).result(30)          # cold: compiles the plan
            svc.submit(mk(2)).result(30)          # warm: same fingerprint
            svc.submit(mk(3)).result(30)
            snap = svc.snapshot()
        assert snap["metrics"]["counters"]["plan_cache_misses"] == 1
        assert snap["metrics"]["counters"]["plan_cache_hits"] == 2
        assert snap["plan_cache"]["hits"] >= 2

    def test_counters_follow_what_each_run_saw_in_the_cache(self):
        # The service reads Controller.plan_cache_hit after the run, not
        # a prediction made beforehand: cold = one miss, warm = one hit,
        # a compile=True run that falls back (telemetry) = neither.
        PLAN_CACHE.clear()
        g, cb, ins = reduction_spec()
        options = {"task_map": ModuloMap(4, g.size()), "compile": True}
        mk = lambda **extra: RunRequest(
            g, cb, ins, runtime="mpi", n_procs=4,
            options={**options, **extra},
        )
        with RunService(workers=1) as svc:
            seen = []
            for req in (mk(), mk(), mk(telemetry=True)):
                svc.submit(req).result(30)
                counters = svc.snapshot()["metrics"]["counters"]
                seen.append((counters["plan_cache_misses"],
                             counters["plan_cache_hits"]))
        assert seen == [(1, 0), (1, 1), (1, 1)]

    def test_plan_probe_skips_non_compiled_requests(self):
        g, cb, ins = reduction_spec()
        with RunService(workers=1) as svc:
            svc.submit(RunRequest(g, cb, ins, runtime="mpi",
                                  n_procs=4)).result(30)
            snap = svc.snapshot()
        assert snap["metrics"]["counters"]["plan_cache_hits"] == 0
        assert snap["metrics"]["counters"]["plan_cache_misses"] == 0

    def test_graphs_are_shared_across_tenants(self):
        g, cb, _ = reduction_spec()
        mk = lambda scale, tenant: RunRequest(
            g, cb,
            {t: Payload((i + 1) * scale)
             for i, t in enumerate(g.leaf_ids())},
            runtime="mpi", n_procs=4, tenant=tenant,
        )
        with RunService(workers=1) as svc:
            svc.submit(mk(1, "alice")).result(30)
            svc.submit(mk(2, "bob")).result(30)   # distinct run, same graph
            snap = svc.snapshot()
        assert snap["metrics"]["counters"]["graph_cache_misses"] == 1
        assert snap["metrics"]["counters"]["graph_cache_hits"] == 1

    def test_stats_shape_of_the_process_plan_cache(self):
        stats = PLAN_CACHE.stats()
        assert set(stats) == {"size", "maxsize", "hits", "misses"}


class TestServiceSLO:
    def test_breach_is_counted_alerted_and_reported(self):
        g, cb, ins = reduction_spec()
        svc = RunService(workers=1, slo={"max_runs_executed": 0})
        try:
            svc.submit(RunRequest(g, cb, ins, runtime="mpi",
                                  n_procs=4)).result(30)
            violations = svc.slo_violations()
            snap = svc.snapshot()
        finally:
            svc.close()
        assert violations and "runs_executed" in violations[0]
        assert snap["metrics"]["counters"]["slo_breaches"] == 1
        assert any(a["kind"] == "slo" for a in snap["alerts"])

    def test_quantile_bounds_work_on_telemetry_sketches(self):
        g, cb, ins = reduction_spec()
        svc = RunService(
            workers=1, slo={"max_submit_to_done_seconds_p99": 1e-12}
        )
        try:
            svc.submit(RunRequest(g, cb, ins, runtime="mpi",
                                  n_procs=4)).result(30)
            assert svc.slo_violations()
        finally:
            svc.close()

    def test_unknown_slo_metric_fails_at_construction(self):
        with pytest.raises(ValueError, match="unknown SLO metric"):
            RunService(workers=1, slo={"max_frobnication": 1})

    def test_eval_spec_is_the_public_engine(self):
        assert eval_spec({"x": 2.0}, {"max_x": 3.0}) == []
        assert eval_spec({"x": 2.0}, {"min_x": 3.0}) != []


class TestLiveSnapshots:
    def test_status_file_is_discoverable_and_renders(self, tmp_path):
        g, cb, ins = reduction_spec()
        svc = RunService(workers=1, status_dir=str(tmp_path),
                         status_interval=0.02, name="snapsvc")
        try:
            svc.submit(RunRequest(g, cb, ins, runtime="mpi", n_procs=4,
                                  tenant="alice")).result(30)
            deadline = time.monotonic() + 5
            status = None
            while time.monotonic() < deadline:
                try:
                    paths = find_status(str(tmp_path))
                except ValueError:  # the writer thread's first snapshot
                    paths = []  # can land after a millisecond-long run
                if paths:
                    status = read_status(paths[0])
                    if status["metrics"]["counters"].get("submitted"):
                        break
                time.sleep(0.02)
        finally:
            svc.close()
        assert status is not None
        assert status["kind"] == "service"
        text = render_status(status)
        assert "snapsvc" in text
        assert "tenants:" in text and "alice" in text
        # close() stamps the terminal state
        final = read_status(find_status(str(tmp_path))[0])
        assert final["state"] == "closed"

    def test_prometheus_families(self, tmp_path):
        g, cb, ins = reduction_spec()
        with RunService(workers=1, name="promsvc") as svc:
            svc.submit(RunRequest(g, cb, ins, runtime="mpi", n_procs=4,
                                  tenant="alice")).result(30)
            text = prometheus_text([svc.snapshot()])
        assert 'repro_service_info{service="promsvc"' in text
        assert "repro_service_submitted_total" in text
        assert "repro_service_queue_depth" in text
        assert 'tenant="alice"' in text
        assert "repro_service_submit_to_done_seconds" in text  # telemetry sketch

    def test_run_and_service_snapshots_coexist(self):
        # A mixed scrape: one run status, one service status.
        run_status = {"run": "r", "pid": 1, "progress": 0.5, "total": 4,
                      "done": 2}
        g, cb, ins = reduction_spec()
        with RunService(workers=1) as svc:
            svc.submit(RunRequest(g, cb, ins, runtime="serial")).result(30)
            text = prometheus_text([run_status, svc.snapshot()])
        assert "repro_run_progress_ratio" in text
        assert "repro_service_submitted_total" in text


    def test_a_scrape_of_a_run_and_a_service_keeps_them_apart(self, tmp_path):
        g, cb, ins = reduction_spec()
        repro.run(g, cb, ins, runtime="mpi", n_procs=4, telemetry=True,
                  live=str(tmp_path))
        with RunService(workers=1, status_dir=str(tmp_path)) as svc:
            svc.submit(RunRequest(g, cb, ins, runtime="serial")).result(30)
        statuses = [read_status(p) for p in find_status(str(tmp_path))]
        assert sorted(s.get("kind", "run") for s in statuses) == [
            "run", "service",
        ]
        text = prometheus_text(statuses)
        # No series twice, no family holding both a run= and a service=.
        assert exposition_defects(text) == []
        samples = [
            line.split("{", 1)[0] for line in text.splitlines()
            if 'service="' in line and not line.startswith("#")
        ]
        for counter in _COUNTERS:
            copies = [
                name for name in samples
                if name.removeprefix("repro_").removeprefix("service_")
                == f"{counter}_total"
            ]
            assert len(copies) == 1, (counter, copies)


class TestServiceEvents:
    def test_lifecycle_events_reach_service_sinks(self):
        sink = ListSink()
        g, cb, ins = reduction_spec()
        with RunService(workers=1, sinks=[sink]) as svc:
            svc.submit(RunRequest(g, cb, ins, runtime="mpi",
                                  n_procs=4)).result(30)
        types = sink.types()
        assert types <= SERVICE_VOCABULARY
        assert "service.submitted" in types
        assert "service.run_started" in types
        assert "service.run_finished" in types

    def test_no_sinks_means_no_events_constructed(self):
        # The zero-cost idiom: _emit returns before Event() when the
        # sink list is empty (same contract the controllers honor).
        g, cb, ins = reduction_spec()
        with RunService(workers=1) as svc:
            svc.submit(RunRequest(g, cb, ins, runtime="serial")).result(30)
            assert svc._sinks == []


class TestFacadeIsNotAService:
    def test_zero_workers_is_rejected(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            RunService(workers=0)

    def test_run_starts_no_thread_and_no_service(self):
        import repro.api

        g, cb, ins = reduction_spec()
        threads, shared = threading.active_count(), repro.api._SHARED
        repro.run(g, cb, ins, runtime="serial")
        assert threading.active_count() == threads
        assert repro.api._SHARED is shared
        assert not hasattr(repro.api, "_INLINE")

    def test_callback_exception_is_reraised_as_the_same_object(self):
        boom = RuntimeError("boom")

        def fail(ins, tid):
            raise boom

        g, cb, ins = reduction_spec()
        with pytest.raises(RuntimeError) as err:
            repro.run(g, {**cb, g.ROOT: fail}, ins, runtime="serial")
        assert err.value is boom

    def test_closed_service_context_manager(self):
        svc = RunService(workers=1)
        with svc:
            pass
        assert svc.closed
        g, cb, ins = reduction_spec()
        with pytest.raises(ServiceClosed):
            svc.submit(RunRequest(g, cb, ins, runtime="serial"))
