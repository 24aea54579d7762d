"""Composition of task graphs via id-prefix namespaces.

Section III: *"different portions of the graph, such as the embedded
reduction or the various broadcast patterns, can be assigned unique
prefixes and then can use the traditional modulo type operations to assign
postfix Ids."*

:class:`ComposedGraph` realizes that scheme generically: each component
graph receives a disjoint contiguous block of the global task-id space and
a disjoint block of the callback-id space, and cross-component edges are
declared by *linking* a component's sink channel to another component's
external input slot.  The result is itself a :class:`TaskGraph`, so
compositions nest and run on any controller unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import GraphError
from repro.core.graph import TaskGraph
from repro.core.ids import EXTERNAL, TNULL, CallbackId, TaskId
from repro.core.task import Task


@dataclass(frozen=True)
class _Part:
    name: str
    graph: TaskGraph
    id_base: int
    cb_base: int


@dataclass(frozen=True)
class _Link:
    src_gid: TaskId
    src_channel: int
    dst_gid: TaskId
    dst_slot: int


class ComposedGraph(TaskGraph):
    """A task graph assembled from named component graphs.

    Usage::

        comp = ComposedGraph()
        comp.add("reduce", Reduction(leaves=64, valence=4))
        comp.add("bcast", Broadcast(leaves=64, valence=4))
        # feed the reduction's root output into the broadcast's root input
        comp.link("reduce", root_id, 0, "bcast", bcast_root_id, 0)

    Component task ids are offset by the component's base; use
    :meth:`global_id` / :meth:`local_id` to convert, and
    :meth:`callback_id` to obtain the global callback id to register
    implementations under.
    """

    def __init__(self) -> None:
        self._parts: list[_Part] = []
        self._by_name: dict[str, _Part] = {}
        self._links: list[_Link] = []
        # Lazily built link indexes keyed by global task id.
        self._links_by_src: dict[TaskId, list[_Link]] | None = None
        self._links_by_dst: dict[TaskId, list[_Link]] | None = None

    # ------------------------------------------------------------------ #
    # Assembly
    # ------------------------------------------------------------------ #

    def add(self, name: str, graph: TaskGraph) -> "ComposedGraph":
        """Add a component under ``name``; returns self for chaining."""
        if name in self._by_name:
            raise GraphError(f"duplicate component name {name!r}")
        id_base = self.size()
        cb_base = sum(len(p.graph.callbacks()) for p in self._parts)
        part = _Part(name, graph, id_base, cb_base)
        self._parts.append(part)
        self._by_name[name] = part
        self._structure_changed()
        return self

    def link(
        self,
        src_part: str,
        src_tid: TaskId,
        src_channel: int,
        dst_part: str,
        dst_tid: TaskId,
        dst_slot: int,
    ) -> "ComposedGraph":
        """Connect a sink channel of one component to an external input
        slot of another.

        The source task's ``outgoing[src_channel]`` must target TNULL (a
        caller-facing sink) and the destination task's
        ``incoming[dst_slot]`` must be EXTERNAL; both endpoints are rewired
        to each other in the composed graph.

        Raises:
            GraphError: if either endpoint does not exist or is not
                linkable.
        """
        sp = self._part(src_part)
        dp = self._part(dst_part)
        src_task = sp.graph.task(src_tid)
        dst_task = dp.graph.task(dst_tid)
        if src_channel >= src_task.n_outputs:
            raise GraphError(
                f"{src_part}:{src_tid} has no output channel {src_channel}"
            )
        channel = src_task.outgoing[src_channel]
        if channel and TNULL not in channel:
            raise GraphError(
                f"{src_part}:{src_tid} channel {src_channel} is not a sink "
                f"(targets {channel})"
            )
        if dst_slot >= dst_task.n_inputs:
            raise GraphError(
                f"{dst_part}:{dst_tid} has no input slot {dst_slot}"
            )
        if dst_task.incoming[dst_slot] != EXTERNAL:
            raise GraphError(
                f"{dst_part}:{dst_tid} input slot {dst_slot} is not EXTERNAL"
            )
        link = _Link(
            sp.id_base + src_tid, src_channel, dp.id_base + dst_tid, dst_slot
        )
        for existing in self._links:
            if (
                existing.dst_gid == link.dst_gid
                and existing.dst_slot == link.dst_slot
            ):
                raise GraphError(
                    f"input slot {dst_slot} of {dst_part}:{dst_tid} already linked"
                )
        self._links.append(link)
        self._structure_changed()
        return self

    def _structure_changed(self) -> None:
        # Both mutators land here: tables, fingerprint and planner
        # arrays of the old structure go, and so do the link indexes.
        super()._structure_changed()
        self._links_by_src = self._links_by_dst = None

    # ------------------------------------------------------------------ #
    # Id conversion
    # ------------------------------------------------------------------ #

    def global_id(self, part: str, tid: TaskId) -> TaskId:
        """Global id of component task ``tid``."""
        p = self._part(part)
        if not any(t == tid for t in p.graph.task_ids()):
            raise GraphError(f"{part!r} has no task {tid}")
        return p.id_base + tid

    def local_id(self, gid: TaskId) -> tuple[str, TaskId]:
        """Map a global id back to ``(component name, component task id)``."""
        part = self._owner(gid)
        return part.name, gid - part.id_base

    def callback_id(self, part: str, local_cb: CallbackId) -> CallbackId:
        """Global callback id for a component's local callback id.

        ``local_cb`` is an entry of the *component's* ``callbacks()`` list;
        the composed graph shifts each component's callback ids into a
        disjoint block.
        """
        p = self._part(part)
        if local_cb not in p.graph.callbacks():
            raise GraphError(
                f"{part!r} does not declare callback id {local_cb}"
            )
        return p.cb_base + local_cb

    # ------------------------------------------------------------------ #
    # TaskGraph interface
    # ------------------------------------------------------------------ #

    def size(self) -> int:
        return sum(p.graph.size() for p in self._parts)

    def task_ids(self):
        for p in self._parts:
            for tid in p.graph.task_ids():
                yield p.id_base + tid

    def callbacks(self) -> list[CallbackId]:
        out: list[CallbackId] = []
        for p in self._parts:
            out.extend(p.cb_base + c for c in p.graph.callbacks())
        return out

    def task(self, gid: TaskId) -> Task:
        part = self._owner(gid)
        local = part.graph.task(gid - part.id_base)
        incoming = [
            src if src < 0 else src + part.id_base for src in local.incoming
        ]
        outgoing = [
            [dst if dst < 0 else dst + part.id_base for dst in channel]
            for channel in local.outgoing
        ]
        self._build_link_index()
        assert self._links_by_src is not None and self._links_by_dst is not None
        for link in self._links_by_src.get(gid, []):
            channel = outgoing[link.src_channel]
            if TNULL in channel:
                channel[channel.index(TNULL)] = link.dst_gid
            else:
                channel.append(link.dst_gid)
        for link in self._links_by_dst.get(gid, []):
            incoming[link.dst_slot] = link.src_gid
        return Task(
            id=gid,
            callback=part.cb_base + local.callback,
            incoming=incoming,
            outgoing=outgoing,
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _part(self, name: str) -> _Part:
        try:
            return self._by_name[name]
        except KeyError:
            raise GraphError(f"unknown component {name!r}") from None

    def _owner(self, gid: TaskId) -> _Part:
        for p in reversed(self._parts):
            if gid >= p.id_base:
                if gid < p.id_base + p.graph.size():
                    return p
                break
        raise GraphError(f"global task id {gid} not in any component")

    def _build_link_index(self) -> None:
        if self._links_by_src is not None:
            return
        by_src: dict[TaskId, list[_Link]] = {}
        by_dst: dict[TaskId, list[_Link]] = {}
        for link in self._links:
            by_src.setdefault(link.src_gid, []).append(link)
            by_dst.setdefault(link.dst_gid, []).append(link)
        self._links_by_src = by_src
        self._links_by_dst = by_dst
