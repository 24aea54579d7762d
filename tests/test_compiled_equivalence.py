"""Compiled run plans ≡ the interpreted engine, bit for bit.

``compile=True`` looks up a cached :class:`~repro.sched.compile.CompiledPlan`
for the run's (graph, task map).  An unobserved static run records its
timing on the plan the first time it runs; later runs with the same
timing key execute only the callbacks and return the recorded stats and
metrics (see ``docs/performance.md``).  These tests require the compiled
path to be *invisible* in every observable output — outputs, makespan,
stats, metrics, and the complete event stream — across the golden
workloads; they pin that a changed payload size, cost model or
controller setting is re-simulated, never served stale, that errors and
stalls surface as on the interpreted path, and the automatic-fallback
rules for runs the plan cannot represent (fault injection, balancers,
telemetry, dynamic-placement backends).
"""

from __future__ import annotations

import sys
import threading
from dataclasses import FrozenInstanceError

import pytest

from repro.core.errors import SimulationError
from repro.core.graph import TaskGraph
from repro.core.ids import EXTERNAL, TNULL
from repro.core.payload import Payload
from repro.core.task import Task
from repro.core.taskmap import ModuloMap
from repro.graphs import Reduction
from repro.obs import ListSink
from repro.obs.events import PLAN_FALLBACK
from repro.runtimes import MPIController
from repro.runtimes.costs import DEFAULT_COSTS, CallableCost
from repro.sched.balance import PeriodicGreedyBalancer
from repro.sched.compile import PLAN_CACHE
from repro.sim.engine import Engine
from repro.sim.machine import SHAHEEN_II

from tests.golden_workloads import (
    CONTROLLERS,
    LEAVES,
    PROCS,
    VALENCE,
    _leaf,
    _make_cost,
    _reduce,
    run_workload,
)

# Which workloads take the compiled fast path, and why the rest fall
# back.  The blocker check is ordered backend -> faults -> balancer ->
# telemetry, so charm_chaos reports "backend" (dynamic placement) even
# though it also injects faults.
COMPILED = ("mpi", "blocking", "legion_spmd")
FALLBACK = {
    "charm": "backend",
    "legion_index": "backend",
    "charm_chaos": "backend",
    "mpi_faults": "faults",
    "mpi_chaos": "faults",
}


def _record(name: str, *, compiled: bool):
    controller = CONTROLLERS[name]()
    controller.compile = compiled
    g, sink, result = run_workload(controller)
    fallbacks = [e for e in sink.events if e.type == PLAN_FALLBACK]
    events = [e.to_dict() for e in sink.events if e.type != PLAN_FALLBACK]
    return {
        "root": result.output(g.root_id).data,
        "makespan": result.stats.makespan,
        "tasks_executed": result.stats.tasks_executed,
        "messages": result.stats.messages,
        "bytes_sent": result.stats.bytes_sent,
        "category_time": dict(result.stats.category_time),
        "callback_time": dict(result.stats.callback_time),
        "events": events,
        "counters": dict(result.metrics.counters),
        "gauges": dict(result.metrics.gauges),
        "histograms": dict(result.metrics.histograms),
    }, fallbacks


# serial and the local pool time with the wall clock, so two runs can
# never be bit-identical in makespan; the local backend's compile=True
# fallback is pinned in tests/test_runtimes_local.py instead.
@pytest.mark.parametrize(
    "name",
    [
        n
        for n in sorted(CONTROLLERS)
        if n != "serial" and not n.startswith("local")
    ],
)
def test_compile_bit_identical(name: str) -> None:
    interpreted, base_fb = _record(name, compiled=False)
    assert base_fb == [], "interpreted runs never narrate fallbacks"
    compiled, fallbacks = _record(name, compiled=True)
    # Every observable output matches exactly (floats included).
    for key in interpreted:
        assert compiled[key] == interpreted[key], f"{name}: {key} diverged"
    if name in COMPILED:
        assert fallbacks == [], f"{name}: expected the compiled fast path"
    else:
        assert [e.category for e in fallbacks] == [FALLBACK[name]]
        assert fallbacks[0].t == 0.0


def _reduction_run(**kwargs):
    g = Reduction(8, 2)
    sink = ListSink()
    c = MPIController(PROCS, compile=True, sinks=[sink], **kwargs)
    c.initialize(g)
    c.register_callback(g.LEAF, lambda ins, tid: [ins[0]])
    c.register_callback(g.REDUCE, lambda ins, tid: [ins[0]])
    c.register_callback(g.ROOT, lambda ins, tid: [ins[0]])
    c.run({tid: Payload([1.0]) for tid in g.leaf_ids()})
    return [e for e in sink.events if e.type == PLAN_FALLBACK]


def test_fallback_on_balancer() -> None:
    (event,) = _reduction_run(balancer=PeriodicGreedyBalancer(period=0.01))
    assert event.category == "balancer"


def test_fallback_on_telemetry() -> None:
    (event,) = _reduction_run(telemetry=True)
    assert event.category == "telemetry"


def test_no_fallback_event_when_static() -> None:
    assert _reduction_run() == []


def test_plan_cache_reused_across_runs() -> None:
    PLAN_CACHE.clear()
    first, _ = _record("mpi", compiled=True)
    misses, hits = PLAN_CACHE.misses, PLAN_CACHE.hits
    assert misses >= 1
    second, _ = _record("mpi", compiled=True)
    assert PLAN_CACHE.misses == misses, "second run recompiled the plan"
    assert PLAN_CACHE.hits > hits
    assert second == first


def test_facade_compile_kwarg() -> None:
    import repro

    g = Reduction(8, 2)
    callbacks = {
        g.LEAF: lambda ins, tid: [ins[0]],
        g.REDUCE: lambda ins, tid: [ins[0]],
        g.ROOT: lambda ins, tid: [ins[0]],
    }
    inputs = {tid: Payload([float(tid)]) for tid in g.leaf_ids()}
    plain = repro.run(g, callbacks, inputs, "mpi", PROCS)
    fast = repro.run(g, callbacks, inputs, "mpi", PROCS, compile=True)
    assert fast.stats.makespan == plain.stats.makespan
    assert fast.output(g.root_id).data == plain.output(g.root_id).data


# ---------------------------------------------------------------------- #
# Lowered runs: unobserved static runs reuse their recorded timing
# ---------------------------------------------------------------------- #


def _unobserved(
    name: str, compiled: bool, *, pad: int = 0, n_procs: int = PROCS,
    cost=None, task_map=None, fail=None, **kwargs,
) -> dict:
    """The golden reduction on ``name``'s backend without any sink;
    ``pad`` grows every input payload, ``fail`` makes REDUCE raise it."""
    cls = type(CONTROLLERS[name]())
    c = cls(
        n_procs, cost_model=cost or _make_cost(), compile=compiled, **kwargs
    )
    g = Reduction(LEAVES, VALENCE)
    c.initialize(g, task_map)

    def reduce(ins, tid):
        if fail is not None:
            raise fail
        return _reduce(ins, tid)

    c.register_callback(g.LEAF, _leaf)
    c.register_callback(g.REDUCE, reduce)
    c.register_callback(g.ROOT, _reduce)
    inputs = {
        tid: Payload([float(tid) + 0.25 * j for j in range(tid % 3 + 1 + pad)])
        for tid in g.leaf_ids()
    }
    result = c.run(inputs)
    assert c.retries == 0
    return {
        "outputs": [
            (tid, ch, p.data)
            for tid, by_ch in result.outputs.items()
            for ch, p in by_ch.items()
        ],
        "stats": result.stats,
        "counters": result.metrics.counters,
        "gauges": result.metrics.gauges,
        "histograms": result.metrics.histograms,
        "plan_cache_hit": c.plan_cache_hit,
        "result": result,
    }


def _same(a: dict, b: dict) -> None:
    for key in ("outputs", "stats", "counters", "gauges", "histograms"):
        assert a[key] == b[key], key


@pytest.fixture
def engine_runs(monkeypatch):
    """Counts ``Engine.run`` calls; ``forbid()`` makes the next ones raise."""
    calls = {"n": 0, "forbidden": False}
    real = Engine.run

    def run(self):
        if calls["forbidden"]:
            raise AssertionError("the simulator ran")
        calls["n"] += 1
        return real(self)

    monkeypatch.setattr(Engine, "run", run)
    return calls


@pytest.mark.parametrize("name", COMPILED)
def test_lowered_runs_match_interpreted(name: str, engine_runs) -> None:
    PLAN_CACHE.clear()
    interpreted = _unobserved(name, False)
    recording = _unobserved(name, True)
    _same(recording, interpreted)
    assert recording["plan_cache_hit"] is False
    engine_runs["forbidden"] = True
    lowered = [_unobserved(name, True) for _ in range(3)]
    for run in lowered:
        _same(run, interpreted)
        assert run["plan_cache_hit"] is True
    # Every result shares the record's one stats and metrics, uncopied,
    # and none of them can be changed through any holder.
    results = [r["result"] for r in (recording, *lowered)]
    for attr in ("stats", "metrics"):
        assert len({id(getattr(r, attr)) for r in results}) == 1
    shared = results[-1]
    with pytest.raises(FrozenInstanceError):
        shared.stats.makespan = 0.0
    for field in ("category_time", "callback_time"):
        with pytest.raises(TypeError):
            getattr(shared.stats, field)[0] = 0.0
    for field in ("counters", "gauges", "histograms"):
        with pytest.raises(TypeError):
            getattr(shared.metrics, field)["x"] = 0
    with pytest.raises(TypeError):
        shared.metrics.histograms["task_compute_seconds"]["count"] = 0
    _same(_unobserved(name, True), interpreted)


#: Blind to payload sizes, so only the size guard can see ``pad``.
BASE = dict(cost=CallableCost(lambda task, inputs: 1e-4 * (task.id % 7 + 1)))
CHANGES = {
    "payload size": dict(pad=2),
    "cost model": dict(cost=CallableCost(lambda task, inputs: 3e-4)),
    "machine": dict(machine=SHAHEEN_II.with_(core_speed=0.5)),
    "costs": dict(costs=DEFAULT_COSTS.with_(dispatch_overhead=4e-5)),
    "n_procs": dict(n_procs=PROCS + 2),
}


@pytest.mark.parametrize("change", sorted(CHANGES))
@pytest.mark.parametrize("name", COMPILED)
def test_changed_run_is_simulated_again(name, change, engine_runs) -> None:
    # One explicit task map, so every variant shares one plan.
    tm = ModuloMap(PROCS, Reduction(LEAVES, VALENCE).size())
    variant = {**BASE, **CHANGES[change]}
    PLAN_CACHE.clear()
    _unobserved(name, True, task_map=tm, **BASE)
    _unobserved(name, True, task_map=tm, **BASE)  # lowered
    before = engine_runs["n"]
    changed = _unobserved(name, True, task_map=tm, **variant)
    assert engine_runs["n"] == before + 1, "stale record reused"
    assert changed["plan_cache_hit"] is True
    twin = _unobserved(name, False, task_map=tm, **variant)
    _same(changed, twin)
    # The new record serves the changed run from now on.
    engine_runs["forbidden"] = True
    _same(_unobserved(name, True, task_map=tm, **variant), twin)


def test_threads_sharing_a_plan_get_their_own_timing() -> None:
    """Service workers share PLAN_CACHE: runs under different keys and
    payloads, racing on one plan's record, each match their twin."""
    tm = ModuloMap(PROCS, Reduction(LEAVES, VALENCE).size())
    variants = [{}, CHANGES["n_procs"], CHANGES["payload size"], CHANGES["costs"]]
    twins = [_unobserved("mpi", False, task_map=tm, **v) for v in variants]
    PLAN_CACHE.clear()
    errors = []

    def work(k: int) -> None:
        try:
            for i in range(12):
                j = (k + i // 2) % len(variants)
                run = _unobserved("mpi", True, task_map=tm, **variants[j])
                _same(run, twins[j])
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_callback_error_surfaces_as_interpreted() -> None:
    PLAN_CACHE.clear()
    for _ in range(2):
        _unobserved("mpi", True)
    with pytest.raises(ValueError) as interpreted:
        _unobserved("mpi", False, fail=ValueError("reduce failed"))
    with pytest.raises(ValueError) as compiled:
        _unobserved("mpi", True, fail=ValueError("reduce failed"))
    assert str(compiled.value) == str(interpreted.value) == "reduce failed"
    # The failed run recorded nothing: the record still serves clean runs.
    _same(_unobserved("mpi", True), _unobserved("mpi", False))


class _Stuck(TaskGraph):
    """Task 1 waits on an input nobody sends."""

    def size(self):
        return 2

    def callbacks(self):
        return [0]

    def task(self, tid):
        if tid == 0:
            return Task(0, 0, [EXTERNAL], [[TNULL]])
        return Task(1, 0, [0], [[TNULL]])


def test_missing_input_stalls_as_interpreted() -> None:
    messages = []
    for compiled in (False, True, True):
        c = MPIController(2, compile=compiled)
        c.initialize(_Stuck())
        c.register_callback(0, lambda ins, tid: [Payload(1)])
        with pytest.raises(SimulationError, match="stalled") as err:
            c.run({0: Payload(1)})
        messages.append(str(err.value))
    assert len(set(messages)) == 1
