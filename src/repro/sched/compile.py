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

A plan also lowers its runs' *timing*.  On a static run the simulated
schedule depends only on the plan, the controller's configuration (its
timing key) and each task's cost-model duration and input sizes, never
on payload values.  The first unobserved run of a plan under a key runs
the interpreted engine and records, through :class:`TimingRecorder`, a
:class:`Timing` on the plan.  Later runs under that key go through
:func:`run_lowered`: the callbacks alone, in the recorded order, checked
against the recorded durations and sizes, returning the recorded stats
and metrics.  The first such run resolves the record against the
graph's tables into a :class:`StepTable` of flat per-step columns that
later runs read front to back.  Any mismatch or error sends the run
back to the interpreted engine, which records again, so results never
change; anything dynamic (fault plans, balancers, telemetry) makes the
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

from repro.core.callbacks import CallbackRegistry, validate_outputs
from repro.core.errors import GraphError
from repro.core.graph import CachedGraph, TaskGraph
from repro.core.ids import TaskId
from repro.core.payload import Payload
from repro.core.tables import GraphTables
from repro.core.taskmap import BlockMap, ModuloMap, RangeMap, TaskMap
from repro.obs.metrics import MetricsSnapshot
from repro.runtimes.costs import CostModel, RuntimeCosts
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
    """One recorded run of a plan: what its simulated timing read, and
    what it produced.

    ``key`` is the controller's timing key
    (:meth:`~repro.runtimes.simbase.SimController._timing_key`).
    ``order`` lists the task ids in dispatch order, a topological order:
    a task dispatches only once every input has arrived.  The guard is
    ``durations``, the cost model's seconds per task, and ``nbytes``, the
    size of each input payload in slot order, both in ``order``.
    ``sinks`` lists the returned ``(task, channels)`` in result order;
    ``stats`` and ``metrics`` are the run's, copied out.  Never mutated.
    """

    key: tuple
    order: array
    durations: array
    nbytes: array
    sinks: tuple
    stats: Stats
    metrics: MetricsSnapshot


class CompiledPlan:
    """The placement-dependent half of a static run, lowered.

    The graph-only half (tasks, slot layout, sources, edge slots) is the
    graph's :class:`~repro.core.tables.GraphTables`; the plan adds
    ``proc``, the placement table (``task_map.shard`` flattened), which
    a compiled run copies instead of flattening the map again, and
    ``timing``, the last recorded run's :class:`Timing` (or ``None``),
    which later runs under the same timing key execute instead of
    simulating.  ``steps`` is the :class:`StepTable` of that record,
    built by the first run that executes it.  Each is replaced whole by
    one attribute store, so threads sharing the plan read either the old
    value or the new one.
    """

    __slots__ = ("proc", "timing", "steps")

    def __init__(self, proc: list[int]) -> None:
        self.proc = proc
        self.timing: Timing | None = None
        self.steps: StepTable | None = None


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
# Recording a run, and running it lowered
# ---------------------------------------------------------------------- #


class TimingRecorder(CostModel):
    """The cost model of a recording run, wrapping the run's own.

    The interpreted engine calls :meth:`duration` once per task, at
    dispatch, with the task's complete input list, so the wrapper sees
    the dispatch order, every duration and every deposited payload's
    size exactly once, and the engine's hot path does no extra work.
    """

    needs_wall_time = False

    def __init__(self, inner: CostModel) -> None:
        self._inner = inner.duration
        self.order = array("q")
        self.durations = array("d")
        self.nbytes = array("q")

    def duration(self, task, inputs, wall_time: float) -> float:
        seconds = self._inner(task, inputs, wall_time)
        self.order.append(task.id)
        self.durations.append(seconds)
        self.nbytes.extend([p.nbytes for p in inputs])
        return seconds

    def commit(self, plan: CompiledPlan, key: tuple, result: RunResult) -> None:
        """Make ``result``, a run that dispatched every task once and
        retried none, ``plan``'s record under ``key``."""
        plan.timing = Timing(
            key,
            self.order,
            self.durations,
            self.nbytes,
            tuple((tid, tuple(chs)) for tid, chs in result.outputs.items()),
            _fresh_stats(result.stats),
            _fresh_metrics(result.metrics),
        )


class StepTable:
    """A :class:`Timing` record resolved against the graph's tables into
    flat per-step columns: everything a lowered run reads, in the order
    it reads it.

    The run's input slots are laid out in step order: step ``i`` (task
    ``timing.order[i]``) takes the slots from ``hi[i - 1]`` (0 for the
    first) to ``hi[i]``, runs callback ``callbacks[cb[i]]`` and expects
    ``n_out[i]`` outputs.  Its edges are the ``fwd_ch`` / ``fwd_slot``
    entries up to ``fwd_end[i]`` (from the previous step's end): output
    channel and the slot it fills.  A channel returned to the caller
    fills one of the ``n_slots - n_inputs`` result slots after the input
    slots, in the order of ``timing.sinks``.  ``ext_slot`` is the slot
    of each EXTERNAL input, in the tables' ``ext_slot`` order.

    Callback *ids* only: tenants with different implementations share
    one plan, so each run resolves its own registry's.  Columns are
    32-bit arrays, which pin no int objects.  Never mutated.

    Raises:
        GraphError, KeyError: the record does not fit the tables (an
            edge with no slot left, which the interpreted run raises
            for, or a return missing on either side).
    """

    __slots__ = (
        "timing", "callbacks", "cb", "hi", "n_out", "fwd_end", "fwd_ch",
        "fwd_slot", "ext_slot", "n_inputs", "n_slots",
    )

    def __init__(self, timing: Timing, tables: GraphTables) -> None:
        self.timing = timing
        tasks, slot_start, n_inputs = tables.tasks, tables.slot_start, tables.n_inputs
        edge_start, n_edges = tables.edge_start, tables.n_edges
        edge_ch, edge_dst, edge_slot = tables.edge_ch, tables.edge_dst, tables.edge_slot
        n = self.n_inputs = tables.n_slots
        # Step-order position of each of the tables' slots.
        pos = array("i", [0]) * n
        hi = array("i")
        a = 0
        for tid in timing.order:
            first = slot_start[tid]
            for s in range(n_inputs[tid]):
                pos[first + s] = a
                a += 1
            hi.append(a)
        returned = {}
        for tid, chs in timing.sinks:
            for ch in chs:
                returned[tid, ch] = n + len(returned)
        self.n_slots = n + len(returned)
        index: dict = {}  # callback id -> position in self.callbacks
        cb, n_out, fwd_end = array("i"), array("i"), array("i")
        fwd_ch, fwd_slot = array("i"), array("i")
        for tid in timing.order:
            task = tasks[tid]
            cb.append(index.setdefault(task.callback, len(index)))
            n_out.append(len(task.outgoing))
            first = edge_start[tid]
            for e in range(first, first + n_edges[tid]):
                ch = edge_ch[e]
                if edge_dst[e] < 0:
                    slot = returned.pop((tid, ch))
                elif edge_slot[e] < 0:
                    raise GraphError(f"task {edge_dst[e]} has no slot left for {tid}")
                else:
                    slot = pos[edge_slot[e]]
                fwd_ch.append(ch)
                fwd_slot.append(slot)
            fwd_end.append(len(fwd_ch))
        if returned:
            raise GraphError(f"no task returns {sorted(returned)}")
        self.callbacks = tuple(index)
        self.cb, self.hi, self.n_out, self.fwd_end = cb, hi, n_out, fwd_end
        self.fwd_ch, self.fwd_slot = fwd_ch, fwd_slot
        self.ext_slot = array("i", [pos[s] for s in tables.ext_slot])


def run_lowered(
    plan: CompiledPlan,
    key: tuple,
    tables: GraphTables,
    registry: CallbackRegistry,
    cost_model: CostModel,
    inputs: dict[TaskId, list[Payload]],
) -> RunResult | None:
    """Run a static run without simulating it: execute the callbacks in
    the recorded order and return fresh copies of the recorded stats and
    metrics.

    Returns ``None`` when ``plan`` holds no record under ``key``, when a
    task's duration or input sizes differ from the record, when an input
    slot is empty, or when a callback or the cost model raises or a
    callback returns anything :func:`validate_outputs` rejects.  The
    caller then runs the interpreted engine, which raises or stalls
    exactly as it would have, and records again.
    """
    timing = plan.timing
    if timing is None or timing.key != key:
        return None
    try:
        steps = plan.steps
        if steps is None or steps.timing is not timing:
            steps = plan.steps = StepTable(timing, tables)
        outputs = _execute_lowered(steps, tables, registry, cost_model, inputs)
    except Exception:
        # Not swallowed: the interpreted run that follows raises it again,
        # where and as it would have without a record.
        return None
    if outputs is None:
        return None
    return RunResult(
        outputs, _fresh_stats(timing.stats), _fresh_metrics(timing.metrics)
    )


def _execute_lowered(steps, tables, registry, cost_model, inputs):
    """The callbacks of one run in ``steps``' order; the returned
    payloads, or ``None`` at the first task whose input sizes or
    duration differ from the record.

    Each callback id is resolved once per run.  A return that is an
    exact ``list`` of exact :class:`Payload` items of the task's arity
    passes inline; anything else goes through :func:`validate_outputs`.
    """
    timing = steps.timing
    slots: list = [None] * steps.n_slots
    ext_start, ext_slot = tables.ext_start, steps.ext_slot
    for j, tid in enumerate(tables.sources):
        x = ext_start[j]
        for payload in inputs[tid]:
            slots[ext_slot[x]] = payload
            x += 1
    cids = steps.callbacks
    fns = [registry.resolve(cid) for cid in cids]
    fwd_ch, fwd_slot = steps.fwd_ch, steps.fwd_slot
    tasks, duration, rec_nbytes = tables.tasks, cost_model.duration, timing.nbytes
    a = e = k = 0
    for tid, c, b, n, end, seconds in zip(
        timing.order, steps.cb, steps.hi, steps.n_out, steps.fwd_end,
        timing.durations,
    ):
        ins = slots[a:b]
        slots[a:b] = [None] * (b - a)
        a = b
        for p in ins:  # before the callback: an empty slot raises here
            if p.nbytes != rec_nbytes[k]:
                return None
            k += 1
        outs = fns[c](ins, tid)
        if type(outs) is not list or len(outs) != n:
            outs = validate_outputs(cids[c], outs, tid, n)
        else:
            for p in outs:
                if type(p) is not Payload:
                    outs = validate_outputs(cids[c], outs, tid, n)
                    break
        if duration(tasks[tid], ins, 0.0) != seconds:
            return None
        while e < end:
            slots[fwd_slot[e]] = outs[fwd_ch[e]]
            e += 1
    results = iter(slots[steps.n_inputs:])
    return {tid: {ch: next(results) for ch in chs} for tid, chs in timing.sinks}


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
