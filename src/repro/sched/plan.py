"""Cost-aware static placement: the HEFT-style list-scheduling planner.

:func:`plan_placement` turns graph structure, a cost estimate, and the
machine's network model into an optimized
:class:`~repro.core.taskmap.TaskMap` — the classic HEFT recipe
(Topcuoglu et al.): rank every task by its *upward rank* (critical-path
distance to the sinks, communication included), then greedily assign each
task, in rank order, to the shard finishing it earliest.  The result is a
:class:`PlannedMap`, a plain explicit task map carrying its planning
metadata, usable anywhere a task map is accepted.

Two structural builders complement the planner when no cost information
exists:

* :func:`locality_map` — sources blocked contiguously, every other task
  co-located with its first producer; generalizes the merge-tree
  locality map's "keep the vertical chain on one rank" rule to any DAG.
* :func:`overdecomposition_map` — round-robin over contiguous chunks,
  trading :class:`~repro.core.taskmap.ModuloMap`'s balance against
  :class:`~repro.core.taskmap.BlockMap`'s locality ("distributing tasks
  among fewer ranks provides a direct trade-off between distributed and
  shared memory parallelism").
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

import numpy as np

from repro.core.errors import TaskMapError
from repro.core.graph import TaskGraph
from repro.core.ids import ShardId, TaskId, is_real_task
from repro.core.taskmap import RangeMap
from repro.runtimes.costs import DEFAULT_COSTS, CostModel, RuntimeCosts
from repro.sched.estimate import CostEstimate, ModelEstimate, UniformEstimate
from repro.sim.machine import SHAHEEN_II, MachineSpec
from repro.util.partition import split_range

if TYPE_CHECKING:
    from repro.sched.compile import PlanCache


class PlannedMap(RangeMap):
    """An explicit task map produced by a planner, with its provenance.

    Attributes:
        strategy: short name of the producing planner (``"heft"``, ...).
        plan_seconds: wall seconds the planner spent.
        est_makespan: the planner's own makespan estimate (virtual
            seconds) — an optimistic bound, not a simulation result.
    """

    def __init__(
        self,
        shard_count: int,
        assignment,
        *,
        strategy: str = "planned",
        plan_seconds: float = 0.0,
        est_makespan: float = 0.0,
    ) -> None:
        super().__init__(shard_count, assignment)
        self.strategy = strategy
        self.plan_seconds = plan_seconds
        self.est_makespan = est_makespan


def _contiguous_ids(graph: TaskGraph) -> range:
    """The graph's id space (off its lowered tables), verified to be
    ``range(size())``: task maps require it."""
    ids = graph.tables().ids
    if not isinstance(ids, range):
        raise TaskMapError(
            "plan_placement requires a contiguous id space 0..size-1 "
            f"(got ids spanning [{ids[0]}, {ids[-1]}] for {len(ids)} tasks)"
        )
    return ids


class _PlanStructure:
    """Cost-independent planner arrays for one graph.

    Everything here depends only on the graph's topology, not on the
    estimator/machine/costs, so it is built once and memoized on the
    *base* graph instance (every ``CachedGraph`` view of the same graph
    shares it).  Edge arrays are CSR-style over the *unique* real edges,
    in first-encounter order (ascending producer id, then channel
    order), which is also the order edge costs are estimated in.
    """

    __slots__ = (
        "n",
        "src_list",
        "dst_list",
        "level",
        "rdst",
        "rcomm_idx",
        "level_blocks",
        "in_prod",
        "in_edge",
    )

    def __init__(self, graph: TaskGraph, n: int) -> None:
        self.n = n
        rounds = graph.rounds()
        level = np.zeros(n, dtype=np.int64)
        for lvl, rnd in enumerate(rounds):
            for tid in rnd:
                level[tid] = lvl
        self.level = level

        pairs: dict[tuple[int, int], int] = {}
        src_list: list[int] = []
        dst_list: list[int] = []
        incoming: list[list[int]] = [()] * n  # type: ignore[list-item]
        task = graph.task
        for tid in range(n):
            t = task(tid)
            for channel in t.outgoing:
                for dst in channel:
                    if is_real_task(dst) and (tid, dst) not in pairs:
                        pairs[(tid, dst)] = len(src_list)
                        src_list.append(tid)
                        dst_list.append(dst)
            incoming[tid] = t.incoming
        self.src_list = src_list
        self.dst_list = dst_list
        # Unique real producers per consumer (duplicates only repeat a
        # max() operand) and the matching unique-edge indices.
        in_prod: list[list[int]] = [()] * n  # type: ignore[list-item]
        in_edge: list[list[int]] = [()] * n  # type: ignore[list-item]
        for tid in range(n):
            prods: list[int] = []
            for p in incoming[tid]:
                if is_real_task(p) and p not in prods:
                    prods.append(p)
            in_prod[tid] = prods
            in_edge[tid] = [pairs[(p, tid)] for p in prods]
        self.in_prod = in_prod
        self.in_edge = in_edge

        # Reverse-topological sweep layout: edges sorted by
        # (level[src], src), segmented per producer, blocked per level
        # (descending) so each level is one maximum.reduceat.
        m = len(src_list)
        blocks: list[tuple[int, int, np.ndarray, np.ndarray]] = []
        if m:
            esrc = np.array(src_list, dtype=np.int64)
            edst = np.array(dst_list, dtype=np.int64)
            perm = np.lexsort((esrc, level[esrc]))
            rsrc = esrc[perm]
            self.rdst = edst[perm]
            self.rcomm_idx = perm
            seg_starts = np.concatenate(
                ([0], np.flatnonzero(rsrc[1:] != rsrc[:-1]) + 1)
            )
            usrc = rsrc[seg_starts]
            ulev = level[usrc]
            bounds = np.concatenate((seg_starts, [m]))
            for lvl in range(len(rounds) - 1, -1, -1):
                lo = int(np.searchsorted(ulev, lvl, "left"))
                hi = int(np.searchsorted(ulev, lvl, "right"))
                if lo == hi:
                    continue
                s0, s1 = int(bounds[lo]), int(bounds[hi])
                blocks.append(
                    (s0, s1, seg_starts[lo:hi] - s0, usrc[lo:hi])
                )
        else:
            self.rdst = np.empty(0, dtype=np.int64)
            self.rcomm_idx = np.empty(0, dtype=np.int64)
        self.level_blocks = blocks


def _plan_structure(graph: TaskGraph, n: int) -> _PlanStructure:
    """Build (or fetch the memoized) :class:`_PlanStructure`."""
    memo = graph._memo()
    st = memo.get("plan_structure")
    if st is None:
        st = memo["plan_structure"] = _PlanStructure(graph, n)
    return st


def plan_placement(
    graph: TaskGraph,
    n_shards: int,
    cost_model: CostModel | None = None,
    machine: MachineSpec = SHAHEEN_II,
    *,
    costs: RuntimeCosts = DEFAULT_COSTS,
    estimator: CostEstimate | None = None,
    cores_per_shard: int = 1,
    cache: "PlanCache | None" = None,
) -> PlannedMap:
    """HEFT-style list scheduling: an optimized static placement.

    The HEFT recipe is unchanged from the reference formulation, but the
    inner loops are vectorized: upward ranks are one
    ``maximum.reduceat`` per dependency level over CSR-encoded edges,
    the priority order is one ``lexsort``, and each task's earliest
    finish time is evaluated across *all* shards at once.  Tie-breaking
    is bit-identical to the scalar loops (first minimum — lower task id,
    lower shard id), so planned maps are unchanged.

    Args:
        graph: the dataflow to place.
        n_shards: number of ranks/shards to place onto.
        cost_model: analytic compute model to estimate from (wrapped in
            :class:`~repro.sched.estimate.ModelEstimate`); ignored when
            ``estimator`` is given.
        machine: network/latency model the communication estimate uses.
        costs: runtime overhead constants (message setup, serialization).
        estimator: explicit cost estimate — pass
            :class:`~repro.sched.estimate.ProfiledEstimate` for placement
            from a measured baseline run.
        cores_per_shard: parallel cores modeled per shard (match the
            controller's ``cores_per_proc``).
        cache: an optional :class:`~repro.sched.compile.PlanCache`; when
            given, a plan already computed for the same (graph,
            n_shards, machine, costs, estimator, cores) fingerprint is
            returned without replanning.

    Returns:
        A :class:`PlannedMap` assigning every task to a shard, carrying
        ``plan_seconds`` / ``est_makespan`` metadata.

    Determinism: ties in both the priority order and the shard choice
    break toward the lower task id / shard id, so a given (graph,
    estimate, machine) always yields the same map.
    """
    if n_shards <= 0:
        raise TaskMapError(f"n_shards must be positive, got {n_shards}")
    t0 = time.perf_counter()
    if estimator is None:
        estimator = (
            ModelEstimate(cost_model)
            if cost_model is not None
            else UniformEstimate()
        )
    graph = graph.cached()
    ids = _contiguous_ids(graph)
    n = len(ids)
    key = None
    if cache is not None:
        from repro.sched.compile import placement_key

        key = placement_key(
            graph, n_shards, machine, costs, estimator, cores_per_shard
        )
        hit = cache.get(key)
        if hit is not None:
            return hit
    if not n:
        return PlannedMap(
            n_shards, [], strategy="heft",
            plan_seconds=time.perf_counter() - t0,
        )
    st = _plan_structure(graph, n)
    speed = machine.core_speed
    disp = costs.dispatch_overhead
    cs = estimator.compute_seconds
    task = graph.task
    w_list = [cs(task(t)) / speed + disp for t in range(n)]
    w = np.asarray(w_list)

    # Estimated cost of one edge when it crosses ranks: message setup,
    # serialize/deserialize on both sides, and the wire itself.  On-rank
    # edges are free (the in-memory message optimization).  Vectorized
    # over the unique real edges in the structure's order.
    eb = estimator.edge_bytes
    nb = np.asarray(
        [eb(s, d) for s, d in zip(st.src_list, st.dst_list)]
    )
    pre = costs.message_overhead + machine.inter_latency
    comm = (
        pre
        + nb / machine.inter_bandwidth
        + 2.0 * nb / costs.serialize_bandwidth
        if len(nb)
        else nb
    )

    # Upward ranks: one segment-max per dependency level, walked in
    # reverse topological order (rounds() already raised on cycles).
    rank = w + 0.0  # sinks: rank = w + best with best = 0.0
    if st.level_blocks:
        rcomm = comm[st.rcomm_idx]
        rdst = st.rdst
        for s0, s1, rel_starts, usrc in st.level_blocks:
            vals = rcomm[s0:s1] + rank[rdst[s0:s1]]
            seg = np.maximum.reduceat(vals, rel_starts)
            np.maximum(seg, 0.0, out=seg)  # the scalar loop's 0.0 floor
            rank[usrc] = w[usrc] + seg

    # List scheduling: decreasing upward rank; the level tie-break keeps
    # the order topological even when ranks tie (all-zero estimates);
    # lexsort stability supplies the ascending-id tie-break.
    order = np.lexsort((st.level, -rank))

    # EFT evaluation, one vector op across all shards per task: for
    # shards hosting no producer the ready time is a single scalar
    # (every input crosses the network), so eft = max(core_free, base)
    # + w; the few producer-hosting shards are then patched in Python.
    fin = [0.0] * n
    place: list[ShardId] = [0] * n
    w_l = w.tolist()
    comm_l = comm.tolist()
    in_prod = st.in_prod
    in_edge = st.in_edge
    single_core = cores_per_shard == 1
    if single_core:
        core_min = np.zeros(n_shards)
    else:
        core_free = np.zeros((n_shards, cores_per_shard))
        core_min = np.zeros(n_shards)
        core_arg = [0] * n_shards
    buf = np.empty(n_shards)
    for tid in order.tolist():
        prods = in_prod[tid]
        w_t = w_l[tid]
        if prods:
            idxs = in_edge[tid]
            base = 0.0
            arr = []
            for k in range(len(prods)):
                a = fin[prods[k]] + comm_l[idxs[k]]
                arr.append(a)
                if a > base:
                    base = a
            np.maximum(core_min, base, out=buf)
            if len(prods) == 1:
                p = prods[0]
                s = place[p]
                r = fin[p]
                if r < 0.0:
                    r = 0.0  # the scalar loop's ready = max(0.0, ...)
                c = core_min[s]
                buf[s] = c if c > r else r
            else:
                shards = [place[p] for p in prods]
                for s in set(shards):
                    ready = 0.0
                    for k in range(len(prods)):
                        v = fin[prods[k]] if shards[k] == s else arr[k]
                        if v > ready:
                            ready = v
                    c = core_min[s]
                    buf[s] = c if c > ready else ready
        else:
            np.maximum(core_min, 0.0, out=buf)
        buf += w_t  # compare full eft values: ties break as the scalar loop
        s_star = int(buf.argmin())
        eft = float(buf[s_star])
        place[tid] = s_star
        fin[tid] = eft
        if single_core:
            core_min[s_star] = eft
        else:
            row = core_free[s_star]
            row[core_arg[s_star]] = eft
            a = int(row.argmin())
            core_arg[s_star] = a
            core_min[s_star] = row[a]
    planned = PlannedMap(
        n_shards,
        place,
        strategy="heft",
        plan_seconds=time.perf_counter() - t0,
        est_makespan=max(fin),
    )
    if cache is not None:
        cache.put(key, planned)
    return planned


def locality_map(graph: TaskGraph, n_shards: int) -> PlannedMap:
    """Producer-following placement: keep dataflow chains on one shard.

    Sources (tasks with no real producer) are blocked contiguously over
    the shards; every downstream task lands on the shard of its *first*
    producer.  This generalizes the merge-tree locality map's rule — the
    heavy vertical chains never cross the network, and only the joins'
    secondary inputs do.
    """
    if n_shards <= 0:
        raise TaskMapError(f"n_shards must be positive, got {n_shards}")
    t0 = time.perf_counter()
    graph = graph.cached()
    ids = _contiguous_ids(graph)
    place: dict[TaskId, ShardId] = {}
    rounds = graph.rounds()
    sources = [
        tid
        for rnd in rounds
        for tid in rnd
        if not any(is_real_task(p) for p in graph.task(tid).incoming)
    ]
    for i, tid in enumerate(sources):
        # Contiguous blocks of the source list (BlockMap over sources).
        base, extra = divmod(len(sources), n_shards)
        pivot = extra * (base + 1)
        if i < pivot:
            place[tid] = i // (base + 1)
        elif base == 0:
            place[tid] = max(0, extra - 1)
        else:
            place[tid] = extra + (i - pivot) // base
    for rnd in rounds:
        for tid in rnd:
            if tid in place:
                continue
            first = next(
                p for p in graph.task(tid).incoming if is_real_task(p)
            )
            place[tid] = place[first]
    return PlannedMap(
        n_shards,
        [place[tid] for tid in ids],
        strategy="locality",
        plan_seconds=time.perf_counter() - t0,
    )


def overdecomposition_map(
    n_shards: int, task_count: int, factor: int = 4
) -> PlannedMap:
    """Round-robin over contiguous chunks: ``factor`` chunks per shard.

    ``factor=1`` degenerates to :class:`~repro.core.taskmap.BlockMap`
    (pure locality); a large factor approaches
    :class:`~repro.core.taskmap.ModuloMap` (pure balance).  The sweet
    spot keeps id-adjacent tasks co-located while still interleaving
    coarse chunks for balance — the standard over-decomposition trade.
    """
    if n_shards <= 0:
        raise TaskMapError(f"n_shards must be positive, got {n_shards}")
    if factor <= 0:
        raise TaskMapError(f"factor must be positive, got {factor}")
    chunks = min(max(1, task_count), n_shards * factor)
    table: list[ShardId] = [0] * task_count
    for c in range(chunks):
        lo, hi = split_range(task_count, chunks, c)
        shard = c % n_shards
        for tid in range(lo, hi):
            table[tid] = shard
    return PlannedMap(n_shards, table, strategy="overdecomposition")
