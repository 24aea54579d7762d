"""Ahead-of-time run plans and the cross-run plan cache.

Interpreting a static dataflow re-derives the same facts every run: each
task's input-slot layout, its placement, which edges cross the network,
and the order external inputs are deposited in.  :func:`compile_plan`
lowers a ``(graph, task_map, machine, costs)`` tuple into a
:class:`CompiledPlan` — flattened, preallocated per-task arrays the
simulated controllers replay without re-deriving anything — and
:class:`PlanCache` keys plans by a structural fingerprint so repeated
``repro.run()`` invocations of the same workload reuse the compiled
artifact outright.

The compiled fast path never changes *results*: physical-task state is
built from the plan's templates exactly as the interpreter would build
it, initial deposits go through :meth:`repro.sim.engine.Engine.replay`
with the same relative ``(time, seq)`` order, and anything dynamic
(fault plans, balancers, telemetry) makes the controller fall back to
the interpreted path with a ``plan.fallback`` observability event.

Fingerprints are *memoized on the fingerprinted instance* (graphs and
task maps are immutable once run — the caching contract
:meth:`~repro.core.graph.TaskGraph.cached` already relies on), which is
what makes a warm cache hit orders of magnitude cheaper than a cold
plan: a lookup is a few attribute reads and one dict probe.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import astuple
from typing import TYPE_CHECKING

from repro.core.graph import CachedGraph, TaskGraph
from repro.core.ids import EXTERNAL, TaskId
from repro.core.taskmap import BlockMap, ModuloMap, RangeMap, TaskMap
from repro.runtimes.costs import DEFAULT_COSTS, RuntimeCosts
from repro.runtimes.dataflow import slot_map_of
from repro.sim.machine import SHAHEEN_II, MachineSpec

if TYPE_CHECKING:
    from repro.sched.estimate import CostEstimate

#: Bump when the fingerprint or plan layout changes shape.
_FP_VERSION = 1


# ---------------------------------------------------------------------- #
# Fingerprints
# ---------------------------------------------------------------------- #


def _base_graph(graph: TaskGraph) -> TaskGraph:
    return graph._base if isinstance(graph, CachedGraph) else graph


def graph_fingerprint(graph: TaskGraph) -> tuple:
    """Structural fingerprint of a graph (topology + callback ids).

    Computed once per base graph instance and memoized on it; every
    :class:`~repro.core.graph.CachedGraph` view of the same base shares
    the memo.  Two structurally identical graphs produce equal
    fingerprints even across separate instances.
    """
    base = _base_graph(graph)
    d = getattr(base, "__dict__", None)
    if d is not None:
        fp = d.get("_repro_graph_fp")
        if fp is not None:
            return fp
    graph = graph.cached()
    n = graph.size()
    task = graph.task
    h = 0
    for tid in range(n):
        t = task(tid)
        h = hash(
            (
                h,
                t.callback,
                tuple(t.incoming),
                tuple(tuple(ch) for ch in t.outgoing),
            )
        )
    fp = ("graph", _FP_VERSION, n, h)
    if d is not None:
        d["_repro_graph_fp"] = fp
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


def run_plan_key(
    graph: TaskGraph,
    task_map: TaskMap,
    machine: MachineSpec,
    n_procs: int,
    procs_per_node: int,
) -> tuple:
    """Cache key of one compiled run plan."""
    return (
        "run-plan",
        graph_fingerprint(graph),
        taskmap_fingerprint(task_map),
        machine_fingerprint(machine),
        n_procs,
        procs_per_node,
    )


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


class CompiledPlan:
    """A static run, lowered: per-task templates plus flat edge tables.

    Everything a simulated controller re-derives per run for a static
    graph, computed once:

    * ``tasks`` / ``n_inputs`` / ``slot_maps`` — per-task materialized
      :class:`~repro.core.task.Task`, input count, and the
      producer → slot-indices dict, indexed by task id.  These are the
      templates physical tasks are stamped from (the slot-map dicts are
      read-only at runtime and shared across runs).
    * ``proc`` — placement table (``task_map.shard`` flattened).
    * ``sources`` — external-input task ids in deposit order (sorted),
      driving :meth:`~repro.sim.engine.Engine.replay`.
    * ``ready_order`` — task ids grouped by dependency round, flattened:
      the order tasks *can* first become ready in.
    * ``edge_src`` / ``edge_dst`` / ``edge_inv_bw`` / ``edge_latency`` —
      per unique real edge, the endpoints and the wire constants of the
      placement (``0.0`` for co-located edges): the delivery offset of
      an ``nbytes`` message on edge ``i`` is
      ``nbytes * edge_inv_bw[i] + edge_latency[i]``.
    """

    __slots__ = (
        "n",
        "n_procs",
        "tasks",
        "n_inputs",
        "slot_maps",
        "proc",
        "sources",
        "ready_order",
        "edge_src",
        "edge_dst",
        "edge_inv_bw",
        "edge_latency",
    )

    def __init__(
        self,
        n: int,
        n_procs: int,
        tasks: list,
        n_inputs: list[int],
        slot_maps: list[dict[TaskId, list[int]]],
        proc: list[int],
        sources: list[TaskId],
        ready_order: list[TaskId],
        edge_src: list[int],
        edge_dst: list[int],
        edge_inv_bw: list[float],
        edge_latency: list[float],
    ) -> None:
        self.n = n
        self.n_procs = n_procs
        self.tasks = tasks
        self.n_inputs = n_inputs
        self.slot_maps = slot_maps
        self.proc = proc
        self.sources = sources
        self.ready_order = ready_order
        self.edge_src = edge_src
        self.edge_dst = edge_dst
        self.edge_inv_bw = edge_inv_bw
        self.edge_latency = edge_latency

    def delivery_offset(self, edge: int, nbytes: float) -> float:
        """Wire time of an ``nbytes`` message on unique edge ``edge``
        (zero for co-located endpoints; excludes NIC queueing)."""
        return nbytes * self.edge_inv_bw[edge] + self.edge_latency[edge]


def compile_plan(
    graph: TaskGraph,
    task_map: TaskMap,
    machine: MachineSpec = SHAHEEN_II,
    costs: RuntimeCosts = DEFAULT_COSTS,
    *,
    procs_per_node: int | None = None,
    cores_per_proc: int = 1,
) -> CompiledPlan:
    """Lower a static ``(graph, placement, machine)`` into a run plan.

    ``costs`` rides along for parity with the planner's signature (the
    lowering itself only needs the machine's wire constants — runtime
    overheads are charged by the controller either way).

    Raises:
        TaskMapError: non-contiguous graph id space (via the planner's
            validation; compiled plans index per-task arrays by id).
    """
    from repro.sched.plan import _contiguous_ids, _plan_structure

    del costs  # see docstring
    graph = graph.cached()
    ids = _contiguous_ids(graph)
    n = len(ids)
    st = _plan_structure(graph, n)
    task = graph.task
    tasks = [task(t) for t in range(n)]
    n_inputs = [t.n_inputs for t in tasks]
    slot_maps = [slot_map_of(t) for t in tasks]
    sources = [t.id for t, m in zip(tasks, slot_maps) if EXTERNAL in m]
    proc = [task_map.shard(t) for t in range(n)]
    ready_order = [t for rnd in graph.rounds() for t in rnd]
    if procs_per_node is None:
        procs_per_node = max(1, machine.cores_per_node // cores_per_proc)
    edge_inv_bw: list[float] = []
    edge_latency: list[float] = []
    for s, dst in zip(st.src_list, st.dst_list):
        sp, dp = proc[s], proc[dst]
        if sp == dp:
            edge_inv_bw.append(0.0)
            edge_latency.append(0.0)
        elif sp // procs_per_node == dp // procs_per_node:
            edge_inv_bw.append(1.0 / machine.intra_bandwidth)
            edge_latency.append(machine.intra_latency)
        else:
            edge_inv_bw.append(1.0 / machine.inter_bandwidth)
            edge_latency.append(machine.inter_latency)
    return CompiledPlan(
        n,
        task_map.shard_count,
        tasks,
        n_inputs,
        slot_maps,
        proc,
        sources,
        ready_order,
        list(st.src_list),
        list(st.dst_list),
        edge_inv_bw,
        edge_latency,
    )
