"""Ahead-of-time run plans and the cross-run plan cache.

What a run needs from the *graph* alone — materialized tasks, input-slot
layout, sources, the slot every edge fills — is lowered once per graph
instance into :class:`~repro.core.tables.GraphTables` and read by the
interpreted and the compiled path alike.  :func:`compile_plan` lowers
the one thing a run additionally reads from its *placement*: a
``(graph, task_map)`` pair becomes a :class:`CompiledPlan` — the task
map flattened into a per-task table — and :class:`PlanCache` keys plans
by a structural fingerprint so repeated ``repro.run()`` invocations of
the same workload reuse the table outright.

The compiled fast path never changes *results*: it differs from the
interpreted one in one place only — the placement table is copied from
the plan instead of flattened from the task map — and anything dynamic
(fault plans, balancers, telemetry) makes the controller fall back to
the interpreted path with a ``plan.fallback`` observability event.

Fingerprints are *memoized on the fingerprinted instance* (graphs and
task maps are immutable once run — the caching contract of
:meth:`~repro.core.graph.TaskGraph.cached`; a graph's memo goes with
everything else :meth:`~repro.core.graph.TaskGraph._structure_changed`
drops), which is what makes a warm cache hit orders of magnitude cheaper
than a cold plan: a lookup is a few attribute reads and one dict probe.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import astuple, dataclass
from typing import TYPE_CHECKING

from repro.core.errors import GraphError
from repro.core.graph import CachedGraph, TaskGraph
from repro.core.taskmap import BlockMap, ModuloMap, RangeMap, TaskMap
from repro.runtimes.costs import RuntimeCosts
from repro.sim.machine import MachineSpec

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
    instances (both immutable once built, so sharing across runs is
    safe).  ``hits`` / ``misses`` make reuse observable in tests and
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


@dataclass(frozen=True, slots=True)
class CompiledPlan:
    """The placement-dependent half of a static run, lowered.

    The graph-only half (tasks, slot layout, sources, edge slots) is the
    graph's :class:`~repro.core.tables.GraphTables`; the plan adds
    ``proc``, the placement table (``task_map.shard`` flattened), which
    a compiled run copies instead of flattening the map again.
    """

    proc: list[int]


def compile_plan(graph: TaskGraph, task_map: TaskMap) -> CompiledPlan:
    """Lower a static ``(graph, placement)`` into a run plan.

    Raises:
        TaskMapError: non-contiguous graph id space (via the planner's
            validation; compiled plans index per-task arrays by id).
    """
    from repro.sched.plan import _contiguous_ids

    ids = _contiguous_ids(graph.cached())
    return CompiledPlan(list(map(task_map.shard, ids)))
