"""Ahead-of-time run plans and the cross-run plan cache.

What a run needs from the *graph* alone — materialized tasks, input-slot
layout, sources, the slot every edge fills — is lowered once per graph
instance into :class:`~repro.core.tables.GraphTables` and read by the
interpreted and the compiled path alike.  :func:`compile_plan` lowers
what a run additionally reads from its *placement*: a
``(graph, task_map)`` pair becomes a :class:`CompiledPlan` — the task
map flattened into a per-task table — and :class:`PlanCache` keys plans
by a structural fingerprint so repeated ``repro.run()`` invocations of
the same workload reuse the table outright.

A plan also keeps its runs' *timing*.  A simulated run executes its
callbacks once, in a callback pass that yields two flat arrays: each
task's cost-model duration and each input payload's size
(:func:`~repro.runtimes.simbase.run_callbacks`); its timing pass, the
discrete-event simulation, reads only those arrays.  On a static run
that simulation depends only on the plan, the controller's
configuration (its timing key) and the two arrays, never on payload
values.  So the first unobserved run of a plan under a key records a
:class:`Timing` on the plan (:func:`record_timing`), and a later run
under that key whose arrays compare equal to the record's returns the
recorded stats and metrics without simulating (:func:`replay_timing`).
If they differ, or a task raised, the run does its timing pass and
records again; its callbacks never run twice, and results never change.
Anything dynamic (fault plans, balancers, telemetry) makes the
controller fall back to the interpreted path with a ``plan.fallback``
observability event.

Fingerprints are *memoized on the fingerprinted instance* (graphs and
task maps are immutable once run — the caching contract of
:meth:`~repro.core.graph.TaskGraph.cached`; a graph's memo goes with
everything else :meth:`~repro.core.graph.TaskGraph._structure_changed`
drops), which is what makes a warm cache hit orders of magnitude cheaper
than a cold plan: a lookup is a few attribute reads and one dict probe.
"""

from __future__ import annotations

import threading
from array import array
from collections import OrderedDict, defaultdict
from dataclasses import astuple
from typing import TYPE_CHECKING, NamedTuple

from repro.core.errors import GraphError
from repro.core.graph import CachedGraph, TaskGraph
from repro.core.taskmap import BlockMap, ModuloMap, RangeMap, TaskMap
from repro.obs.metrics import MetricsSnapshot
from repro.runtimes.costs import RuntimeCosts
from repro.runtimes.result import RunResult
from repro.sim.machine import MachineSpec
from repro.sim.trace import Stats

if TYPE_CHECKING:
    from repro.sched.estimate import CostEstimate

#: Bump when the fingerprint or plan layout changes shape.
_FP_VERSION = 1


# ---------------------------------------------------------------------- #
# Fingerprints
# ---------------------------------------------------------------------- #


def graph_fingerprint(graph: TaskGraph) -> tuple:
    """Structural fingerprint of a graph (topology + callback ids).

    Computed once per base graph instance and memoized on it (views
    share the memo); structurally identical graphs produce equal
    fingerprints across instances.  Hashes the instance's lowered tables
    when it has them, or is about to — a cached view is what a caller
    runs or plans on next — and walks a bare, never-run instance (a
    service submission about to be mapped onto a shared view) without
    pinning anything on it.

    Raises:
        GraphError: non-contiguous id space (callers treat the graph as
            unshareable).
    """
    memo = graph._memo()
    fp = memo.get("fingerprint")
    if fp is not None:
        return fp
    n = graph.size()
    tables = graph.tables() if isinstance(graph, CachedGraph) else memo.get("tables")
    if tables is None:
        tasks = map(graph.task, range(n))
    elif isinstance(tables.ids, range):
        tasks = tables.tasks
    else:
        raise GraphError("graph fingerprints need the id space range(size())")
    h = 0
    for t in tasks:
        h = hash(
            (
                h,
                t.callback,
                tuple(t.incoming),
                tuple(tuple(ch) for ch in t.outgoing),
            )
        )
    fp = memo["fingerprint"] = ("graph", _FP_VERSION, n, h)
    return fp


def taskmap_fingerprint(task_map: TaskMap) -> tuple:
    """Value fingerprint of a placement, memoized on the instance.

    Closed-form maps hash their parameters; explicit maps hash their
    table; unknown map types enumerate ``shard(t)`` over the id space.
    """
    d = getattr(task_map, "__dict__", None)
    if d is not None:
        fp = d.get("_repro_map_fp")
        if fp is not None:
            return fp
    if isinstance(task_map, ModuloMap):
        fp = ("modulo", task_map.shard_count, task_map.task_count)
    elif isinstance(task_map, BlockMap):
        fp = ("block", task_map.shard_count, task_map.task_count)
    elif isinstance(task_map, RangeMap):
        fp = (
            "range",
            task_map.shard_count,
            hash(tuple(task_map._table)),
        )
    else:
        fp = (
            type(task_map).__name__,
            task_map.shard_count,
            hash(
                tuple(
                    task_map.shard(t) for t in range(task_map.task_count)
                )
            ),
        )
    if d is not None:
        d["_repro_map_fp"] = fp
    return fp


def machine_fingerprint(machine: MachineSpec) -> tuple:
    return astuple(machine)


def costs_fingerprint(costs: RuntimeCosts) -> tuple:
    return astuple(costs)


def placement_key(
    graph: TaskGraph,
    n_shards: int,
    machine: MachineSpec,
    costs: RuntimeCosts,
    estimator: "CostEstimate",
    cores_per_shard: int,
) -> tuple:
    """Cache key of one :func:`~repro.sched.plan.plan_placement` call."""
    return (
        "placement",
        graph_fingerprint(graph),
        n_shards,
        machine_fingerprint(machine),
        costs_fingerprint(costs),
        estimator.fingerprint(),
        cores_per_shard,
    )


def run_plan_key(graph: TaskGraph, task_map: TaskMap) -> tuple:
    """Cache key of one compiled run plan: exactly what it is computed
    from, so one plan serves every machine and rank count."""
    return ("run-plan", graph_fingerprint(graph), taskmap_fingerprint(task_map))


# ---------------------------------------------------------------------- #
# The cache
# ---------------------------------------------------------------------- #


class PlanCache:
    """A small LRU cache for planner and compiler artifacts.

    Keys are the fingerprint tuples above; values are
    :class:`~repro.sched.plan.PlannedMap` or :class:`CompiledPlan`
    instances, safe to share across runs: both are immutable once
    built, but for a plan's timing record, which is only ever replaced
    whole.  ``hits`` / ``misses`` make reuse observable in tests and
    benchmarks.

    Thread-safe: the run service's worker pool resolves plans from many
    controller slots against the shared :data:`PLAN_CACHE`, so every
    operation (including the LRU reordering inside ``get``) runs under
    an internal lock.
    """

    def __init__(self, maxsize: int = 32) -> None:
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self._lock = threading.RLock()

    def get(self, key: tuple):
        """The cached value for ``key``, or ``None`` (counts a miss)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: tuple, value) -> None:
        """Insert ``value``, evicting the least recently used entry."""
        with self._lock:
            entries = self._entries
            entries[key] = value
            entries.move_to_end(key)
            while len(entries) > self.maxsize:
                entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> dict:
        """Point-in-time ``{size, maxsize, hits, misses}`` (JSON-able)."""
        with self._lock:
            return {
                "size": len(self._entries),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
            }

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries


#: Process-wide default cache, shared by every controller with
#: ``compile=True`` (and usable for ``plan_placement(..., cache=...)``).
PLAN_CACHE = PlanCache()


# ---------------------------------------------------------------------- #
# The compiled plan
# ---------------------------------------------------------------------- #


class Timing(NamedTuple):
    """One recorded timing pass of a plan: what it read, and what it
    produced.

    ``key`` is the controller's timing key
    (:meth:`~repro.runtimes.simbase.SimController._timing_key`).  What
    the pass read besides it are the callback pass's two arrays,
    ``durations`` (the cost model's seconds per task) and ``nbytes`` (the
    size of each input payload, per flat slot).  ``sinks`` lists the ids
    of the tasks that returned payloads, in result order; ``stats`` and
    ``metrics`` are the run's, copied out.  Never mutated.
    """

    key: tuple
    durations: array
    nbytes: array
    sinks: tuple
    stats: Stats
    metrics: MetricsSnapshot


class CompiledPlan:
    """The placement-dependent half of a static run, lowered.

    The graph-only half (tasks, slot layout, sources, edge slots,
    topological order) is the graph's
    :class:`~repro.core.tables.GraphTables`; the plan adds ``proc``, the
    placement table (``task_map.shard`` flattened), which a compiled run
    copies instead of flattening the map again, and ``timing``, the last
    recorded run's :class:`Timing` (or ``None``), which later runs under
    the same timing key return instead of simulating when their arrays
    equal it.  ``timing`` is replaced whole by one attribute store, so
    threads sharing the plan read either the old record or the new one.
    """

    __slots__ = ("proc", "timing")

    def __init__(self, proc: list[int]) -> None:
        self.proc = proc
        self.timing: Timing | None = None


def compile_plan(graph: TaskGraph, task_map: TaskMap) -> CompiledPlan:
    """Lower a static ``(graph, placement)`` into a run plan.

    Raises:
        TaskMapError: non-contiguous graph id space (via the planner's
            validation; compiled plans index per-task arrays by id).
    """
    from repro.sched.plan import _contiguous_ids

    ids = _contiguous_ids(graph.cached())
    return CompiledPlan(list(map(task_map.shard, ids)))


# ---------------------------------------------------------------------- #
# Recording a timing pass, and reusing it
# ---------------------------------------------------------------------- #


def replay_timing(plan: CompiledPlan, key: tuple, calls) -> RunResult | None:
    """The run whose callback pass is ``calls`` (a
    :class:`~repro.runtimes.simbase.Callbacks`), from ``plan``'s record
    alone: the returned payloads with fresh copies of the recorded stats
    and metrics.  ``None`` unless the record is under ``key``, its two
    arrays equal ``calls``' (two C-level comparisons) and no task raised
    or over-delivered; the caller then runs the timing pass, which raises
    or stalls exactly as it would have, and records again.
    """
    timing = plan.timing
    if (
        timing is None
        or timing.key != key
        or calls.errors
        or calls.overflow
        or calls.durations != timing.durations
        or calls.nbytes != timing.nbytes
    ):
        return None
    returned = calls.returned
    return RunResult(
        {tid: returned[tid] for tid in timing.sinks},
        _fresh_stats(timing.stats),
        _fresh_metrics(timing.metrics),
    )


def record_timing(plan: CompiledPlan, key: tuple, calls, result: RunResult) -> None:
    """Make ``result``, a timing pass over ``calls`` that retried
    nothing, ``plan``'s record under ``key``."""
    plan.timing = Timing(
        key,
        calls.durations,
        calls.nbytes,
        tuple(result.outputs),
        _fresh_stats(result.stats),
        _fresh_metrics(result.metrics),
    )


def _fresh_stats(stats: Stats) -> Stats:
    return Stats(
        stats.makespan,
        defaultdict(float, stats.category_time),
        defaultdict(float, stats.callback_time),
        stats.tasks_executed,
        stats.messages,
        stats.bytes_sent,
    )


def _fresh_metrics(m: MetricsSnapshot) -> MetricsSnapshot:
    return MetricsSnapshot(
        *map(_fresh, (m.counters, m.gauges, m.histograms, m.timeseries, m.sketches))
    )


def _fresh(obj):
    """``obj``'s nested dicts and lists copied; only leaves are shared."""
    if isinstance(obj, dict):
        return {k: _fresh(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_fresh(v) for v in obj]
    return obj
