"""Per-layer probes: small fixed measurements of one layer each.

Each probe calls public API of one ``repro`` sub-package, times it from
outside and returns ``{metric name: value}``.  A probe is reported under
the workload whose ``run_s`` it explains (``workloads.py`` says which).
"""

from __future__ import annotations

import pickle
import time

from repro.core.payload import Payload
from repro.graphs import Reduction

from benchmarks.ledger.stats import median


# Module-level so the process pool and the service's dedup key (which
# keys callbacks by identity) both accept them.
def passthrough(inputs, tid):
    return [inputs[0]]


def total(inputs, tid):
    return [Payload(sum(p.data for p in inputs))]


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def wall_ratio(numerator, denominator, reps: int) -> float:
    """Median wall of one callable over that of another, the two run
    alternately so that a drifting host or a growing heap hits both."""
    walls = [(numerator(), denominator()) for _ in range(reps)]
    return median(n for n, _ in walls) / median(d for _, d in walls)


def reduction_problem(leaves: int):
    """A callbacks-are-free reduction: graph, callbacks, inputs."""
    g = Reduction(leaves, 4)
    callbacks = {g.LEAF: passthrough, g.REDUCE: total, g.ROOT: total}
    inputs = {tid: Payload(1) for tid in g.leaf_ids()}
    return g, callbacks, inputs


def materialize(graph, tracer) -> dict:
    """What the inline facade pays per run: a fresh cached view, then
    ``task(tid)`` for every id."""
    with tracer.span("materialize", "graphs"):
        t0 = time.perf_counter()
        view = graph.cached()
        for tid in view.task_ids():
            view.task(tid)
        seconds = time.perf_counter() - t0
    return {"graphs.materialize_s": seconds, "graphs.tasks": view.size()}


def payload_pickle(inputs: dict, reps: int) -> dict:
    """Round trip of the workload's initial inputs through pickle: the
    toll every payload pays twice on the process pool."""
    blob = pickle.dumps(inputs)
    return {
        "core.payload_pickle_s": median(
            timed(lambda: pickle.loads(pickle.dumps(inputs)))
            for _ in range(reps)
        ),
        "core.payload_pickle_bytes": len(blob),
    }


def plan_placement_costs(graph, shards: int) -> dict:
    """HEFT planning of ``graph`` cold, then the same call on a warm
    ``PlanCache``."""
    from repro.sched import PlanCache, UniformEstimate, plan_placement

    view = graph.cached()
    estimate = UniformEstimate(1e-4, nbytes=1e6)
    cache = PlanCache(4)
    plan = lambda: plan_placement(view, shards, estimator=estimate, cache=cache)
    cold = timed(plan)
    return {
        "sched.plan_s": cold,
        "sched.plan_cache_hit_s": median(timed(plan) for _ in range(5)),
    }


def engine_rates(reps: int, ticks: int = 200_000) -> dict:
    """Event throughput of the interpreted heap path and of the
    compiled plan's replay path, on plain ticks."""
    from repro.sim.engine import Engine

    def tick() -> None:
        pass

    def heap() -> None:
        engine = Engine()
        call_at = engine.call_at
        for i in range(ticks):
            call_at(i * 1e-6, tick)
        engine.run()

    def replay() -> None:
        Engine().replay([(i * 1e-6, tick, ()) for i in range(ticks)])

    return {
        "sim.engine_events_per_s": ticks / median(timed(heap) for _ in range(reps)),
        "sim.replay_events_per_s": ticks / median(timed(replay) for _ in range(reps)),
    }


def local_dispatch(reps: int) -> dict:
    """Per-task cost of the local backend on free callbacks, per mode
    (the dispatch figure Parsl reports for its executors)."""
    import repro

    g, callbacks, inputs = reduction_problem(1024)
    out = {}
    for mode in ("process", "thread", "inline"):
        run = lambda: repro.run(
            g, callbacks, inputs, runtime="local", n_procs=2, mode=mode
        )
        seconds = median(timed(run) for _ in range(reps))
        out[f"runtimes.local.{mode}_us_per_task"] = 1e6 * seconds / g.size()
    return out


def pool_roundtrip(reps: int) -> dict:
    """Spawn + one task + teardown of the per-run process pool."""
    import repro

    g, callbacks, inputs = reduction_problem(1)
    run = lambda: repro.run(
        g, callbacks, inputs, runtime="local", n_procs=2, mode="process"
    )
    return {
        "runtimes.local.pool_roundtrip_s": median(
            timed(run) for _ in range(max(reps, 2))
        )
    }
