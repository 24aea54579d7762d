"""The ``TaskGraph`` base class.

Section III: *"The basic TaskGraph interface requires the user to implement
only two functions: 1) compute the total number of tasks, and 2) return a
logical task corresponding to a task id."*  Everything else —
``callbacks()``, ``local_graph()``, validation, round decomposition for
index launches, Dot export — is provided generically here, exactly as the
paper provides ``localGraph`` and ``callbacks`` in its base class.

Task graphs are *procedural*: a graph object stores only its parameters and
materializes :class:`~repro.core.task.Task` objects on demand, so a graph
with millions of tasks costs nothing until a controller queries the small
subgraph it owns ("fully instantiating a graph on every core ... is not
scalable.  Instead, we typically rely on procedural descriptions").
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.core.errors import GraphError
from repro.core.ids import EXTERNAL, TNULL, CallbackId, ShardId, TaskId, is_real_task
from repro.core.tables import GraphTables
from repro.core.task import Task

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.taskmap import TaskMap


def _rounds_from(tasks: Iterable[Task]) -> list[list[TaskId]]:
    """Partition already-materialized ``tasks`` into dependency rounds.

    Shared by :meth:`TaskGraph.rounds` and :meth:`TaskGraph.validate`, so
    validation does not re-materialize the whole graph a second time just
    for the cycle check.
    """
    indeg: dict[TaskId, int] = {}
    consumers: dict[TaskId, list[TaskId]] = {}
    for t in tasks:
        indeg[t.id] = sum(1 for src in t.incoming if is_real_task(src))
        # Count every message (edge multiplicity matters: a consumer
        # expecting two messages from one producer has in-degree 2).
        for channel in t.outgoing:
            for dst in channel:
                if is_real_task(dst):
                    consumers.setdefault(t.id, []).append(dst)
    level: dict[TaskId, int] = {}
    queue = deque(sorted(tid for tid, d in indeg.items() if d == 0))
    for tid in queue:
        level[tid] = 0
    processed = 0
    while queue:
        tid = queue.popleft()
        processed += 1
        for dst in consumers.get(tid, []):
            indeg[dst] -= 1
            level[dst] = max(level.get(dst, 0), level[tid] + 1)
            if indeg[dst] == 0:
                queue.append(dst)
    if processed != len(indeg):
        raise GraphError(
            f"graph has a dependency cycle: {len(indeg) - processed} "
            f"task(s) never became ready"
        )
    n_rounds = 1 + max(level.values(), default=-1)
    out: list[list[TaskId]] = [[] for _ in range(n_rounds)]
    for tid in sorted(level):
        out[level[tid]].append(tid)
    return out


class TaskGraph(ABC):
    """Abstract procedural description of a dataflow.

    Subclasses implement :meth:`size` and :meth:`task`; graphs whose id
    space is non-contiguous additionally override :meth:`task_ids`.
    """

    # ------------------------------------------------------------------ #
    # Required interface
    # ------------------------------------------------------------------ #

    @abstractmethod
    def size(self) -> int:
        """Total number of tasks in the graph."""

    @abstractmethod
    def task(self, tid: TaskId) -> Task:
        """Materialize the logical task with id ``tid``.

        Raises:
            GraphError: if ``tid`` is not a task of this graph.
        """

    # ------------------------------------------------------------------ #
    # Generic interface with default implementations
    # ------------------------------------------------------------------ #

    def task_ids(self) -> Iterator[TaskId]:
        """Iterate over all valid task ids.

        The default assumes the contiguous id space ``range(size())``;
        composed graphs override this.
        """
        return iter(range(self.size()))

    def callbacks(self) -> list[CallbackId]:
        """The callback ids (task types) used by this graph.

        The default scans every task; concrete graphs override this with
        their known, ordered list (the paper's ``callback_ids`` member) so
        the scan is avoided.
        """
        seen: dict[CallbackId, None] = {}
        for tid in self.task_ids():
            seen.setdefault(self.task(tid).callback, None)
        return list(seen)

    def local_graph(self, task_map: "TaskMap", shard: ShardId) -> list[Task]:
        """All tasks assigned to ``shard`` by ``task_map``.

        Mirrors the paper's ``Reduction::localGraph``: query the map for
        the shard's task ids and materialize each one.
        """
        return [self.task(tid) for tid in task_map.get_ids(shard)]

    # ------------------------------------------------------------------ #
    # Structure queries
    # ------------------------------------------------------------------ #

    def tasks(self) -> Iterator[Task]:
        """Materialize every task (test/debug helper; avoid at scale)."""
        for tid in self.task_ids():
            yield self.task(tid)

    def boundary_ids(self) -> tuple[list[TaskId], list[TaskId]]:
        """``(source_ids, sink_ids)`` computed in a single graph scan.

        Prefer this over calling :meth:`source_ids` and :meth:`sink_ids`
        separately when both are needed — each of those is a full scan.
        """
        sources: list[TaskId] = []
        sinks: list[TaskId] = []
        for t in self.tasks():
            if t.external_inputs():
                sources.append(t.id)
            if t.is_sink():
                sinks.append(t.id)
        return sources, sinks

    def source_ids(self) -> list[TaskId]:
        """Ids of tasks with at least one host-provided (EXTERNAL) input."""
        return self.boundary_ids()[0]

    def sink_ids(self) -> list[TaskId]:
        """Ids of tasks that return at least one channel to the caller."""
        return self.boundary_ids()[1]

    def rounds(self) -> list[list[TaskId]]:
        """Partition the tasks into *rounds of noninterfering tasks*.

        Round ``r`` contains every task whose longest dependency chain from
        a source has length ``r``; no task depends on another task of its
        own round.  This is exactly the grouping the Legion index-launch
        controller needs (Section IV-C: "the current implementation crawls
        the graph to group the tasks into rounds of noninterfering
        tasks").

        Computed once per graph instance and kept with its lowered
        tables (:meth:`_memo`): every caller shares the returned lists
        and must not mutate them.

        Raises:
            GraphError: if the graph contains a dependency cycle.
        """
        memo = self._memo()
        rounds = memo.get("rounds")
        if rounds is None:
            rounds = memo["rounds"] = _rounds_from(self.tasks())
        return rounds

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #

    def validate(self) -> None:
        """Check structural well-formedness.

        Verifies that: ids are unique and consistent; every edge is
        symmetric (``u`` lists ``v`` as consumer exactly as often as ``v``
        lists ``u`` as producer); every input slot has a producer
        (EXTERNAL counts); the graph is acyclic; and every referenced id is
        a task of the graph.

        Raises:
            GraphError: describing the first violation found.
        """
        ids = list(self.task_ids())
        id_set = set(ids)
        if len(ids) != len(id_set):
            raise GraphError("duplicate task ids in task_ids()")
        if len(ids) != self.size():
            raise GraphError(
                f"task_ids() yields {len(ids)} ids but size() is {self.size()}"
            )
        tasks = {tid: self.task(tid) for tid in ids}
        for tid, t in tasks.items():
            if t.id != tid:
                raise GraphError(f"task({tid}) returned task with id {t.id}")
            for slot, src in enumerate(t.incoming):
                if src == TNULL:
                    raise GraphError(
                        f"task {tid} input slot {slot} references TNULL"
                    )
                if is_real_task(src) and src not in id_set:
                    raise GraphError(
                        f"task {tid} input slot {slot} references unknown "
                        f"task {src}"
                    )
            for ch, channel in enumerate(t.outgoing):
                for dst in channel:
                    if dst == EXTERNAL:
                        raise GraphError(
                            f"task {tid} output channel {ch} targets EXTERNAL"
                        )
                    if is_real_task(dst) and dst not in id_set:
                        raise GraphError(
                            f"task {tid} output channel {ch} targets unknown "
                            f"task {dst}"
                        )
        # Edge symmetry: count producer->consumer multiplicity both ways.
        for tid, t in tasks.items():
            for dst in set(t.consumers()):
                sent = sum(ch.count(dst) for ch in t.outgoing)
                expected = tasks[dst].incoming.count(tid)
                if sent != expected:
                    raise GraphError(
                        f"edge {tid}->{dst} asymmetric: {tid} sends {sent} "
                        f"message(s) but {dst} expects {expected}"
                    )
        for tid, t in tasks.items():
            for src in set(t.producers()):
                expected = t.incoming.count(src)
                sent = sum(ch.count(tid) for ch in tasks[src].outgoing)
                if sent != expected:
                    raise GraphError(
                        f"edge {src}->{tid} asymmetric: {tid} expects "
                        f"{expected} message(s) but {src} sends {sent}"
                    )
        _rounds_from(tasks.values())  # raises on cycles; reuses the scan

    # ------------------------------------------------------------------ #
    # Interop / debugging
    # ------------------------------------------------------------------ #

    def to_networkx(self):
        """Export as a ``networkx.DiGraph`` (nodes carry ``callback``)."""
        import networkx as nx

        g = nx.DiGraph()
        for t in self.tasks():
            g.add_node(t.id, callback=t.callback)
        for t in self.tasks():
            for ch, channel in enumerate(t.outgoing):
                for dst in channel:
                    if is_real_task(dst):
                        g.add_edge(t.id, dst, channel=ch)
        return g

    def to_dot(self, subset: Iterable[TaskId] | None = None) -> str:
        """Render the graph (or a subset of its tasks) in Dot format.

        See :func:`repro.core.dot.graph_to_dot`; provided here so
        ``graph.to_dot()`` works as in the paper's debugging workflow.
        """
        from repro.core.dot import graph_to_dot

        return graph_to_dot(self, subset=subset)

    # ------------------------------------------------------------------ #
    # Lowering and caching
    # ------------------------------------------------------------------ #

    def _memo(self) -> dict:
        """Everything derived from this instance's structure (lowered
        tables, rounds, fingerprint, planner arrays) in one dict, so one
        hook drops it all and one rule keeps it out of pickles."""
        memo = self.__dict__.get("_repro_memo")
        if memo is None:  # setdefault: racing first calls agree on one
            memo = self.__dict__.setdefault("_repro_memo", {})
        return memo

    def _structure_changed(self) -> None:
        """What a graph that mutates in place must call: forget
        everything derived from the old structure."""
        self.__dict__.pop("_repro_memo", None)

    def __getstate__(self) -> dict:
        # Derived state never travels: a bound-method callback drags its
        # graph to every pool worker, which can rebuild what it needs.
        state = self.__dict__.copy()
        state.pop("_repro_memo", None)
        return state

    def tables(self) -> GraphTables:
        """This graph lowered into flat tables, built on first use and
        shared by every run of this instance from then on.  Concurrent
        first calls may each build a copy; the copies are equal and the
        last store wins, so there is no lock."""
        memo = self._memo()
        tables = memo.get("tables")
        if tables is None:
            tables = memo["tables"] = GraphTables(self)
        return tables

    def cached(self) -> "TaskGraph":
        """A view of this graph that memoizes :meth:`task` materializations.

        **Caching contract — per graph instance, immutable after first
        use:** the view reads the instance's :meth:`tables`,
        which materialize every task once, on the first query, and then
        serve every view, run, controller and service worker of that
        instance.  The graph must be a pure function of ``tid``, and one
        that changes in place (:class:`~repro.core.composition.
        ComposedGraph` under ``add`` / ``link``) must call
        :meth:`_structure_changed`.  All shipped graphs satisfy this.
        """
        return CachedGraph(self)

    def __len__(self) -> int:
        return self.size()


class CachedGraph(TaskGraph):
    """Memoizing view of another graph (see :meth:`TaskGraph.cached`).

    ``task`` reads the base graph's tables; ``callbacks`` is computed
    once per view, ``rounds`` once per base graph.  Unknown
    attributes delegate to the wrapped graph, so graph-specific helpers
    (``leaf_ids()``, ``describe()``, ...) keep working on the view.
    """

    def __init__(self, base: TaskGraph) -> None:
        while isinstance(base, CachedGraph):  # never stack caches
            base = base._base
        self._base = base
        self._callbacks: list[CallbackId] | None = None

    def size(self) -> int:
        return self._base.size()

    def task(self, tid: TaskId) -> Task:
        if tid >= 0:
            try:
                return self._base.tables().tasks[tid]
            except LookupError:
                pass
        return self._base.task(tid)  # not a task: the graph's own error

    def task_ids(self) -> Iterator[TaskId]:
        return self._base.task_ids()

    def tables(self) -> GraphTables:
        return self._base.tables()

    def _memo(self) -> dict:
        return self._base._memo()

    def callbacks(self) -> list[CallbackId]:
        if self._callbacks is None:
            self._callbacks = self._base.callbacks()
        return list(self._callbacks)

    def cached(self) -> "TaskGraph":
        """Already cached; returns itself."""
        return self

    def __getattr__(self, name: str):
        # Only called when normal lookup fails: delegate graph-specific
        # attributes (callback-id constants, id helpers, ...).
        if name == "_base":  # a half-built view (unpickling): no base yet
            raise AttributeError(name)
        return getattr(self._base, name)
