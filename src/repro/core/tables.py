"""A task graph, lowered once: the flat tables every run reads.

A :class:`~repro.core.graph.TaskGraph` is the *program's* view of a
dataflow — a pure function from task id to :class:`~repro.core.task.Task`
(Section III).  :class:`GraphTables` is the *runtime's* layout of the
same graph: every task materialized once, and what a run would otherwise
re-derive from the tasks — the sources, the input counts, the input slot
each outgoing edge fills — resolved into flat int arrays.  Built by
:meth:`TaskGraph.tables <repro.core.graph.TaskGraph.tables>`, once per
graph instance, and never mutated but for the memo of its topological
order (equal whichever thread computes it), so every run, controller and
service worker thread shares one object.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING

from repro.core.errors import GraphError
from repro.core.ids import EXTERNAL, TNULL

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.graph import TaskGraph


class GraphTables:
    """One graph instance, materialized and resolved.

    A run keeps one flat list of input slots for the whole graph; the
    tables speak in positions of that list.  Per-task tables are indexed
    *by task id*: sequences for the id space ``range(n)``, dicts for any
    other.  Offsets and flat slots (one distinct int per entry) are
    ``array("l")``, which pins no int objects.

    Attributes:
        n / ids: number of tasks, and their ids in ascending order (a
            ``range`` exactly when the id space is contiguous).
        tasks: the materialized tasks, by id.
        n_inputs / slot_start: by id — task ``t`` owns the ``n_inputs[t]``
            flat slots from ``slot_start[t]``, in input-slot order.
        n_slots: length of the flat slot list.
        sources: ids of the tasks with EXTERNAL inputs, ascending (the
            deposit order of a run's initial inputs).
        ext_start / ext_slot: ``len(sources) + 1`` offsets into
            ``ext_slot``, each source's EXTERNAL flat slots in order.
        n_outputs: by id — the task's output arity (channel count).
        n_edges / edge_start: by id — task ``t``'s outgoing edges are the
            ``n_edges[t]`` entries from ``edge_start[t]``, in channel order.
        edge_ch / edge_dst / edge_slot: per edge, its output channel, the
            consumer id and the flat slot it fills.  A channel returned
            to the caller is one edge with consumer ``TNULL``, ahead of
            the channel's dataflow edges.  The k-th edge of a producer →
            consumer pair fills the consumer's k-th slot naming that
            producer, so a multi-edge lands in channel order however its
            messages are delivered; an edge the consumer has no slot
            left for gets ``-1`` (delivering it is over-delivery).
    """

    __slots__ = (
        "n", "ids", "tasks", "n_inputs", "slot_start", "n_slots",
        "sources", "ext_start", "ext_slot", "n_outputs",
        "n_edges", "edge_start", "edge_ch", "edge_dst", "edge_slot", "_order",
    )

    def __init__(self, graph: "TaskGraph") -> None:
        ids = sorted(graph.task_ids())
        n = self.n = len(ids)
        index = None  # id -> position; positions are ids when contiguous
        if ids == list(range(n)):
            ids = range(n)
        else:
            index = {tid: i for i, tid in enumerate(ids)}
        self.ids = ids
        tasks = list(map(graph.task, ids))

        # Consumer side: lay the input slots out flat and, per task, list
        # the slots fed by real producers sorted by (producer, slot).
        n_inputs = [0] * n
        slot_start = array("l", [0]) * n
        sources = self.sources = []
        ext_start = self.ext_start = array("l", [0])
        ext_slot = self.ext_slot = array("l")
        fed_start = [0] * (n + 1)
        fed_by: list[int] = []
        fed_slot: list[int] = []
        base = 0
        for i, task in enumerate(tasks):
            incoming = task.incoming
            k = n_inputs[i] = len(incoming)
            slot_start[i] = base
            fed_start[i] = len(fed_by)
            n_ext = len(ext_slot)
            order = range(k)
            if k > 1:
                order = sorted(order, key=incoming.__getitem__)
            for s in order:
                src = incoming[s]
                if src >= 0:
                    fed_by.append(src)
                    fed_slot.append(base + s)
                elif src == EXTERNAL:
                    ext_slot.append(base + s)
            if len(ext_slot) > n_ext:
                sources.append(task.id)
                ext_start.append(len(ext_slot))
            base += k
        self.n_slots = base
        fed_start[n] = len(fed_by)

        # Producer side, ascending producer id: each consumer's sorted
        # slot list is consumed front to back by one cursor.
        cursor = fed_start[:n]
        n_outputs = [0] * n
        n_edges = [0] * n
        edge_start = array("l", [0]) * n
        edge_ch = self.edge_ch = []
        edge_dst = self.edge_dst = []
        edge_slot = self.edge_slot = array("l")
        for i, task in enumerate(tasks):
            tid = task.id
            edge_start[i] = len(edge_dst)
            n_outputs[i] = len(task.outgoing)
            for ch, channel in enumerate(task.outgoing):
                if not channel or TNULL in channel:
                    edge_ch.append(ch)
                    edge_dst.append(TNULL)
                    edge_slot.append(-1)
                for dst in channel:
                    if dst < 0:
                        continue
                    j = dst if index is None else index.get(dst, n)
                    if j >= n:
                        raise GraphError(
                            f"task {tid} output channel {ch} targets "
                            f"unknown task {dst}"
                        )
                    p, end = cursor[j], fed_start[j + 1]
                    while p < end and fed_by[p] < tid:
                        p += 1
                    slot = -1
                    if p < end and fed_by[p] == tid:
                        slot = fed_slot[p]
                        p += 1
                    cursor[j] = p
                    edge_ch.append(ch)
                    edge_dst.append(dst)
                    edge_slot.append(slot)
            n_edges[i] = len(edge_dst) - edge_start[i]

        by_id = self.by_id
        self.tasks, self.n_inputs, self.n_outputs, self.n_edges = map(
            by_id, (tasks, n_inputs, n_outputs, n_edges)
        )
        self.slot_start, self.edge_start = by_id(slot_start), by_id(edge_start)
        self._order: array | None = None

    def order(self) -> array:
        """The ids of the tasks a run executes, in a topological order.

        A task is in it once every slot fills: EXTERNAL slots from the
        initial inputs, the others from edges of earlier tasks (a task
        with no inputs, or a slot no edge fills, never runs: its run
        stalls).  Ready tasks go on a stack, so a consumer runs right
        after its last producer and outputs wait as briefly as the graph
        allows.  Computed on first use and kept.
        """
        if self._order is not None:
            return self._order
        edge_start, n_edges = self.edge_start, self.n_edges
        edge_dst, edge_slot = self.edge_dst, self.edge_slot
        need = self.n_inputs.copy()
        for j, tid in enumerate(self.sources):
            need[tid] -= self.ext_start[j + 1] - self.ext_start[j]
        stack = [tid for tid in reversed(self.sources) if need[tid] == 0]
        order = array("l")
        while stack:
            tid = stack.pop()
            order.append(tid)
            first = edge_start[tid]
            # Backwards, so the stack pops consumers in channel order.
            for e in range(first + n_edges[tid] - 1, first - 1, -1):
                dst = edge_dst[e]
                if dst >= 0 and edge_slot[e] >= 0:
                    need[dst] -= 1
                    if need[dst] == 0:
                        stack.append(dst)
        self._order = order
        return order

    def external(self, inputs):
        """A run's initial deposits as ``(task, slot, payload)``, in
        ascending task order, from ``inputs`` (source id -> payload
        list); a source ``inputs`` lacks gets nothing."""
        ext_start, ext_slot = self.ext_start, self.ext_slot
        for j, tid in enumerate(self.sources):
            a = ext_start[j]
            for payload in inputs.get(tid, ()):
                yield tid, ext_slot[a], payload
                a += 1

    def by_id(self, column):
        """``column`` — one entry per task, in ``ids`` order — as
        something indexable by task id."""
        if isinstance(self.ids, range):
            return column
        return dict(zip(self.ids, column))
