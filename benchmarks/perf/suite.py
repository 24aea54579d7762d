"""Simulator hot-path microbenchmarks and the regression check.

Each benchmark returns a JSON-friendly dict with at least a ``seconds``
field (best of ``reps`` repetitions — the minimum is the right estimator
for wall time on a noisy host, since noise only ever adds).  Derived
rates ride along for human reading but the regression check compares
only ``seconds`` (lower is better) and the determinism fields.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_simcore.json"

#: Regression tolerance: fail when seconds exceed baseline by more than this.
DEFAULT_THRESHOLD = 0.30

SCHEMA_VERSION = 1


def _best_of(reps: int, fn: Callable[[], Any]) -> tuple[float, Any]:
    """Run ``fn`` ``reps`` times; return (best seconds, last result)."""
    best = None
    result = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, result


def bench_engine_events(reps: int, n_events: int = 200_000) -> dict:
    """Raw engine throughput: schedule then drain plain events."""
    from repro.sim.engine import Engine

    def once() -> int:
        eng = Engine()
        fired = 0

        def tick() -> None:
            nonlocal fired
            fired += 1

        call_at = eng.call_at
        for i in range(n_events):
            call_at(i * 1e-6, tick)
        eng.run()
        return fired

    seconds, fired = _best_of(reps, once)
    if fired != n_events:
        raise RuntimeError(f"engine dropped events: {fired}/{n_events}")
    return {
        "seconds": round(seconds, 6),
        "events": n_events,
        "events_per_sec": round(n_events / seconds),
    }


def bench_controller_tasks(reps: int, leaves: int = 4096, valence: int = 4) -> dict:
    """Task throughput of a simulated controller on a trivial reduction."""
    from repro.core.payload import Payload
    from repro.graphs import Reduction
    from repro.runtimes import MPIController

    def once():
        g = Reduction(leaves, valence)
        c = MPIController(64)
        c.initialize(g, None)
        c.register_callback(g.LEAF, lambda ins, tid: [ins[0]])
        add = lambda ins, tid: [Payload(sum(p.data for p in ins))]
        c.register_callback(g.REDUCE, add)
        c.register_callback(g.ROOT, add)
        result = c.run({t: Payload(1) for t in g.leaf_ids()})
        return g.size(), result

    seconds, (n_tasks, result) = _best_of(reps, once)
    if result.stats.tasks_executed != n_tasks:
        raise RuntimeError("controller did not execute every task")
    return {
        "seconds": round(seconds, 6),
        "tasks": n_tasks,
        "tasks_per_sec": round(n_tasks / seconds),
    }


def bench_fig6_point(reps: int) -> dict:
    """The profiled figure-6 point: MergeTree 1024 leaves / 256 procs."""
    from benchmarks.harness import bench_field
    from repro.analysis.mergetree import MergeTreeWorkload
    from repro.runtimes import MPIController

    workload = MergeTreeWorkload(
        bench_field(), 1024, threshold=0.45, valence=4,
        sim_shape=(1024, 1024, 1024),
    )

    def once():
        controller = MPIController(256, cost_model=workload.cost_model())
        return workload.run(controller)

    seconds, result = _best_of(reps, once)
    return {
        "seconds": round(seconds, 6),
        "makespan": result.makespan,
        "tasks_executed": result.stats.tasks_executed,
    }


def bench_placement_plan(reps: int, leaves: int = 1024, shards: int = 256) -> dict:
    """Planner throughput: HEFT list scheduling over the fig-6 graph."""
    from repro.graphs import MergeTreeGraph
    from repro.sched import UniformEstimate, plan_placement

    g = MergeTreeGraph(leaves, 4).cached()
    est = UniformEstimate(1e-4, nbytes=1e6)

    def once():
        return plan_placement(g, shards, estimator=est)

    seconds, pm = _best_of(reps, once)
    return {
        "seconds": round(seconds, 6),
        "tasks": g.size(),
        "tasks_per_sec": round(g.size() / seconds),
        "est_makespan": pm.est_makespan,
    }


def bench_plan_vectorized(
    reps: int, leaves: int = 4096, shards: int = 512
) -> dict:
    """Planner throughput at scale: a 4× larger merge tree than the
    fig-6 point, exercising the vectorized rank sweep and batched EFT
    on ~35k tasks / 512 shards."""
    from repro.graphs import MergeTreeGraph
    from repro.sched import UniformEstimate, plan_placement

    g = MergeTreeGraph(leaves, 4).cached()
    est = UniformEstimate(1e-4, nbytes=1e6)

    def once():
        return plan_placement(g, shards, estimator=est)

    seconds, pm = _best_of(reps, once)
    return {
        "seconds": round(seconds, 6),
        "tasks": g.size(),
        "tasks_per_sec": round(g.size() / seconds),
        "est_makespan": pm.est_makespan,
    }


def bench_plan_cache_hit(reps: int, leaves: int = 1024, shards: int = 256) -> dict:
    """Warm-cache replan cost on the fig-6 point.

    A cold plan is measured once, then the timed runs hit the
    fingerprint-keyed :class:`~repro.sched.compile.PlanCache` — a few
    attribute reads and a dict probe.  The suite enforces the >=100×
    cold/warm speedup inline (like the sketch accuracy bound): a
    slower warm path means fingerprint memoization broke.
    """
    from repro.graphs import MergeTreeGraph
    from repro.sched import PlanCache, UniformEstimate, plan_placement

    g = MergeTreeGraph(leaves, 4).cached()
    est = UniformEstimate(1e-4, nbytes=1e6)
    cache = PlanCache(4)
    t0 = time.perf_counter()
    cold_pm = plan_placement(g, shards, estimator=est, cache=cache)
    cold = time.perf_counter() - t0

    def once():
        return plan_placement(g, shards, estimator=est, cache=cache)

    seconds, pm = _best_of(reps, once)
    if pm is not cold_pm:
        raise RuntimeError("plan cache did not return the cached map")
    speedup = cold / seconds
    if speedup < 100.0:
        raise RuntimeError(
            f"warm-cache replan only {speedup:.0f}x faster than a cold "
            f"plan (cold {cold:.4f}s, warm {seconds:.6f}s); need >=100x"
        )
    return {
        "seconds": round(seconds, 9),
        "cold_seconds": round(cold, 6),
        "speedup": round(speedup),
        "tasks": g.size(),
        "est_makespan": pm.est_makespan,
    }


def bench_compiled_events(reps: int, n_events: int = 200_000) -> dict:
    """Static-schedule throughput: the same tick workload as
    ``engine_events`` driven through :meth:`Engine.replay` (one cursor,
    no per-event heap ops), a path no run takes any more."""
    from repro.sim.engine import Engine

    def once() -> int:
        eng = Engine()
        fired = 0

        def tick() -> None:
            nonlocal fired
            fired += 1

        entries = [(i * 1e-6, tick, ()) for i in range(n_events)]
        eng.replay(entries)
        return fired

    seconds, fired = _best_of(reps, once)
    if fired != n_events:
        raise RuntimeError(f"replay dropped events: {fired}/{n_events}")
    return {
        "seconds": round(seconds, 6),
        "events": n_events,
        "events_per_sec": round(n_events / seconds),
    }


def bench_sketch_quantiles(reps: int, n_samples: int = 100_000) -> dict:
    """Telemetry sketch ingest rate and accuracy on a heavy-tailed stream.

    Feeds a fixed 100k-sample lognormal stream (seeded, so the bucket
    layout is deterministic) into a 1%-relative-error
    :class:`~repro.obs.telemetry.QuantileSketch` and verifies p50/p95/p99
    land within the bound of the exact rank-based percentiles.  The
    reported ``buckets`` field is the sketch's entire memory footprint —
    a few hundred buckets summarizing 100k samples (O(buckets), not
    O(n)) — and is a determinism field: any drift in the bucket layout
    means the sketch math changed.
    """
    import random

    from repro.obs.telemetry import QuantileSketch

    rng = random.Random(0xBABE1F)
    samples = [rng.lognormvariate(0.0, 2.0) for _ in range(n_samples)]

    def once() -> QuantileSketch:
        sk = QuantileSketch(rel_err=0.01)
        observe = sk.observe  # hot-loop bind, as the controllers do
        for x in samples:
            observe(x)
        return sk

    seconds, sk = _best_of(reps, once)
    exact = sorted(samples)
    errs = {}
    for q in (0.50, 0.95, 0.99):
        e = exact[int(q * (n_samples - 1))]
        errs[q] = abs(sk.quantile(q) - e) / e
    worst = max(errs.values())
    if worst > sk.rel_err:
        raise RuntimeError(
            f"sketch quantile error {worst:.4%} exceeds the "
            f"{sk.rel_err:.0%} bound (per-q: {errs})"
        )
    return {
        "seconds": round(seconds, 6),
        "samples": n_samples,
        "samples_per_sec": round(n_samples / seconds),
        "buckets": sk.n_buckets,
        "p99_rel_err": round(errs[0.99], 6),
    }


def bench_local_calibration(
    reps: int, leaves: int = 256, valence: int = 4
) -> dict:
    """The calibration loop: real run -> profiled cost model -> replay.

    Runs a reduction on the local (real-core) thread pool with a
    buffering sink, mines the trace into a profiled cost model
    (:func:`repro.runtimes.calibrate.profile_cost_model`), then replays
    the same graph on the simulated MPI controller under that model —
    same worker/rank count — and reports the sim-predicted makespan next
    to the measured one.  ``seconds`` is the real pool's wall time (best
    of ``reps``, so the regression check still guards dispatch-loop
    overhead); ``prediction_ratio`` is predicted/measured — informational
    only, since the measured side is host noise.  The replayed outputs
    must match the real run's bit-for-bit or the benchmark errors out.
    """
    from repro.core.payload import Payload
    from repro.graphs import Reduction
    from repro.obs import ListSink
    from repro.runtimes import LocalPoolController, MPIController
    from repro.runtimes.calibrate import profile_cost_model

    workers = 2
    g = Reduction(leaves, valence)
    add = lambda ins, tid: [Payload(sum(p.data for p in ins))]
    callbacks = {
        g.LEAF: lambda ins, tid: [ins[0]],
        g.REDUCE: add,
        g.ROOT: add,
    }
    inputs = {t: Payload(1) for t in g.leaf_ids()}

    def run_with(controller):
        controller.initialize(g, None)
        for cid, fn in callbacks.items():
            controller.register_callback(cid, fn)
        return controller.run(inputs)

    def real_once():
        sink = ListSink()
        pool = LocalPoolController(
            n_workers=workers, mode="thread", sinks=[sink]
        )
        return run_with(pool), sink

    seconds, (measured, sink) = _best_of(reps, real_once)
    cost = profile_cost_model(sink.events)
    predicted = run_with(MPIController(workers, cost_model=cost))
    if predicted.output(g.root_id).data != measured.output(g.root_id).data:
        raise RuntimeError(
            "calibrated replay diverged from the measured run: "
            f"{predicted.output(g.root_id).data!r} != "
            f"{measured.output(g.root_id).data!r}"
        )
    wall = measured.stats.makespan
    return {
        "seconds": round(seconds, 6),
        "tasks": measured.stats.tasks_executed,
        "measured_makespan": round(wall, 6),
        "predicted_makespan": round(predicted.makespan, 6),
        "prediction_ratio": round(predicted.makespan / wall, 4)
        if wall > 0
        else 0.0,
    }


def bench_service_throughput(
    reps: int, n_requests: int = 256, leaves: int = 256, valence: int = 4
) -> dict:
    """Run-service submission throughput, warm vs cold.

    Cold: ``n_requests`` *distinct* submissions through a
    :class:`~repro.service.RunService` worker pool — every request
    materializes, plans (the first compiles, the rest hit the plan
    cache), and executes.  Warm: the same count of *identical*
    submissions spread across tenants — the fingerprint-keyed dedup
    coalesces them onto one execution fanned back to every waiter, with
    the compiled plan already hot.  ``seconds`` is the warm batch (best
    of ``reps``); the >=5x warm/cold submissions-per-second ratio is
    enforced inline, since a smaller gap means request coalescing or
    the plan cache stopped carrying the service.
    """
    from repro.core.payload import Payload
    from repro.core.taskmap import ModuloMap
    from repro.graphs import Reduction
    from repro.sched.compile import PLAN_CACHE
    from repro.service import RunRequest, RunService

    g = Reduction(leaves, valence)
    add = lambda ins, tid: [Payload(sum(p.data for p in ins))]
    callbacks = {
        g.LEAF: lambda ins, tid: [ins[0]],
        g.REDUCE: add,
        g.ROOT: add,
    }
    options = {"task_map": ModuloMap(4, g.size()), "compile": True}
    tenants = ("alice", "bob", "carol", "dave")

    def request(scale: int, tenant: str) -> RunRequest:
        return RunRequest(
            g, callbacks,
            {t: Payload((i + 1) * scale)
             for i, t in enumerate(g.leaf_ids())},
            runtime="mpi", n_procs=4, tenant=tenant, options=options,
        )

    PLAN_CACHE.clear()
    with RunService(workers=4, max_queue=4 * n_requests) as svc:
        t0 = time.perf_counter()
        handles = [
            svc.submit(request(k + 1, tenants[k % len(tenants)]))
            for k in range(n_requests)
        ]
        cold_roots = [h.result(300).output(g.root_id).data for h in handles]
        cold = time.perf_counter() - t0

        def once():
            hs = [
                svc.submit(request(1, tenants[i % len(tenants)]))
                for i in range(n_requests)
            ]
            return [h.result(300) for h in hs]

        executed_before = svc.metrics.counter("runs_executed").value
        seconds, results = _best_of(reps, once)
        executed = svc.metrics.counter("runs_executed").value - executed_before

    root = results[0].output(g.root_id).data
    if any(r.output(g.root_id).data != root for r in results):
        raise RuntimeError("coalesced submissions diverged")
    if root != cold_roots[0]:
        raise RuntimeError("warm run diverged from its cold twin")
    # Coalescing is in-flight only, so a batch may legitimately split
    # into a few executions when the shared run resolves mid-submit —
    # but the vast majority of submissions must ride a twin.
    if executed * 2 > reps * n_requests:
        raise RuntimeError(
            f"warm batches executed {executed} runs for "
            f"{reps * n_requests} submissions; dedup should coalesce "
            "the majority"
        )
    speedup = cold / seconds
    if speedup < 5.0:
        raise RuntimeError(
            f"warm submissions only {speedup:.1f}x the cold rate "
            f"(cold {cold:.4f}s, warm {seconds:.4f}s for {n_requests} "
            "requests); need >=5x"
        )
    return {
        "seconds": round(seconds, 6),
        "cold_seconds": round(cold, 6),
        "requests": n_requests,
        "warm_submissions_per_sec": round(n_requests / seconds),
        "cold_submissions_per_sec": round(n_requests / cold),
        "speedup": round(speedup, 1),
        "warm_runs_executed": executed,
        "root": root,
    }


BENCHMARKS: dict[str, Callable[[int], dict]] = {
    "engine_events": bench_engine_events,
    "compiled_events": bench_compiled_events,
    "controller_tasks": bench_controller_tasks,
    "fig6_point": bench_fig6_point,
    "placement_plan": bench_placement_plan,
    "plan_vectorized": bench_plan_vectorized,
    "plan_cache_hit": bench_plan_cache_hit,
    "sketch_quantiles": bench_sketch_quantiles,
    "local_calibration": bench_local_calibration,
    "service_throughput": bench_service_throughput,
}

#: Benchmarks whose run can be re-captured as an event trace (the
#: engine microbenchmark has no controller, hence no events).
TRACEABLE: tuple[str, ...] = ("controller_tasks", "fig6_point")


def _maybe_slowed(inner, slow_task: int | None, slow_factor: float):
    """Wrap a cost model so one task's compute is inflated.

    Used by the diff acceptance test and the CI obs smoke step to build
    a seeded "regressed" trace whose slowdown has a known culprit.
    """
    if slow_task is None:
        return inner
    from repro.runtimes.costs import CostModel

    class _SlowTask(CostModel):
        needs_wall_time = inner.needs_wall_time

        def duration(self, task, inputs, wall_time):
            d = inner.duration(task, inputs, wall_time)
            return d * slow_factor if task.id == slow_task else d

    return _SlowTask()


def capture_trace(
    name: str,
    path: str,
    slow_task: int | None = None,
    slow_factor: float = 50.0,
    leaves: int = 4096,
    valence: int = 4,
) -> dict:
    """Run one traceable benchmark once with a JSONL exporter attached.

    This is the attribution side of the perf suite: the timing runs stay
    unobserved (observability would shift the numbers), and on demand the
    same workload is re-run once with an exporter so
    ``python -m repro.obs diff`` can explain *what moved*.  Unlike the
    timing run, the capture installs a deterministic analytic cost model
    (tasks need nonzero compute for per-task attribution);
    ``slow_task``/``slow_factor`` optionally inflate one task to fabricate
    a known regression.

    Returns ``{"path", "makespan", "tasks"}``.
    """
    from repro.obs import JsonlExporter

    if name == "controller_tasks":
        from repro.core.payload import Payload
        from repro.graphs import Reduction
        from repro.runtimes import MPIController
        from repro.runtimes.costs import CallableCost

        cost = _maybe_slowed(
            CallableCost(lambda t, ins: 2e-5 * (t.id % 7 + 1)),
            slow_task,
            slow_factor,
        )
        g = Reduction(leaves, valence)
        sink = JsonlExporter(path)
        c = MPIController(64, cost_model=cost, sinks=[sink])
        c.initialize(g, None)
        c.register_callback(g.LEAF, lambda ins, tid: [ins[0]])
        add = lambda ins, tid: [Payload(sum(p.data for p in ins))]
        c.register_callback(g.REDUCE, add)
        c.register_callback(g.ROOT, add)
        result = c.run({t: Payload(1) for t in g.leaf_ids()})
        sink.close()
    elif name == "fig6_point":
        from benchmarks.harness import bench_field
        from repro.analysis.mergetree import MergeTreeWorkload
        from repro.runtimes import MPIController

        workload = MergeTreeWorkload(
            bench_field(), 1024, threshold=0.45, valence=4,
            sim_shape=(1024, 1024, 1024),
        )
        cost = _maybe_slowed(
            workload.cost_model(), slow_task, slow_factor
        )
        sink = JsonlExporter(path)
        controller = MPIController(256, cost_model=cost, sinks=[sink])
        result = workload.run(controller)
        sink.close()
    else:
        raise ValueError(
            f"benchmark {name!r} is not traceable (one of {TRACEABLE})"
        )
    return {
        "path": path,
        "makespan": result.makespan,
        "tasks": result.stats.tasks_executed,
    }

#: Fields that must match the baseline exactly — any drift means the
#: simulation result changed, which this suite treats as a failure
#: regardless of speed.
DETERMINISM_FIELDS = {
    "fig6_point": ("makespan", "tasks_executed"),
    "controller_tasks": ("tasks",),
    "engine_events": ("events",),
    "compiled_events": ("events",),
    "placement_plan": ("tasks", "est_makespan"),
    "plan_vectorized": ("tasks", "est_makespan"),
    "plan_cache_hit": ("tasks", "est_makespan"),
    "sketch_quantiles": ("samples", "buckets", "p99_rel_err"),
    # Makespans are wall-clock on the real side, so only the task count
    # is determinism-checkable here.
    "local_calibration": ("tasks",),
    # The coalesced batch must keep returning the bit-identical root
    # payload however the submissions interleave.
    "service_throughput": ("requests", "root"),
}

#: Absolute throughput floors (field, minimum) asserted by --check in
#: addition to the relative wall-time comparison: the tentpole speedups
#: must not silently erode.  Values leave generous headroom below the
#: reference machine's numbers (~263k planned tasks/sec, ~5M replayed
#: events/sec) so slower CI hosts still clear them.
FLOORS: dict[str, tuple[str, float]] = {
    # ISSUE 7 acceptance: >50k planned tasks/sec on the fig-6 point.
    "placement_plan": ("tasks_per_sec", 50_000),
    # ISSUE 7 acceptance: >=2x the 642k events/sec interpreted baseline.
    "compiled_events": ("events_per_sec", 1_284_118),
}


def run_suite(reps: int = 3, only: list[str] | None = None) -> dict:
    """Run the benchmarks and return the report dict."""
    names = only or list(BENCHMARKS)
    report: dict[str, Any] = {"schema": SCHEMA_VERSION, "reps": reps, "benchmarks": {}}
    for name in names:
        fn = BENCHMARKS[name]
        print(f"[perf] {name} ...", flush=True)
        entry = fn(reps)
        report["benchmarks"][name] = entry
        print(f"[perf] {name}: {entry['seconds']:.4f}s", flush=True)
    return report


def write_report(report: dict, path: Path) -> None:
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def check_against_baseline(
    report: dict, baseline: dict, threshold: float = DEFAULT_THRESHOLD
) -> list[str]:
    """Compare a fresh report against a baseline; return failure messages.

    A benchmark fails when its wall time exceeds the baseline by more
    than ``threshold`` (fraction), when any determinism field differs,
    or when a :data:`FLOORS` throughput floor is missed.  Benchmarks
    present in only one of the two reports are skipped (the suite may
    grow over time); floors apply to whatever the fresh report ran.
    """
    failures: list[str] = []
    base_benches = baseline.get("benchmarks", {})
    for name, entry in report.get("benchmarks", {}).items():
        floor = FLOORS.get(name)
        if floor is not None:
            field, minimum = floor
            value = entry.get(field, 0)
            if value < minimum:
                failures.append(
                    f"{name}: {field} {value:,} below the "
                    f"{minimum:,.0f} floor"
                )
        base = base_benches.get(name)
        if base is None:
            continue
        limit = base["seconds"] * (1.0 + threshold)
        if entry["seconds"] > limit:
            failures.append(
                f"{name}: {entry['seconds']:.4f}s exceeds baseline "
                f"{base['seconds']:.4f}s by more than {threshold:.0%}"
            )
        for field in DETERMINISM_FIELDS.get(name, ()):
            if field in base and entry.get(field) != base[field]:
                failures.append(
                    f"{name}: {field} changed from {base[field]!r} "
                    f"to {entry.get(field)!r} (determinism regression)"
                )
    return failures
