"""Structured runtime lifecycle events and the sink protocol.

Every controller — serial, MPI, Charm++, Legion SPMD, and Legion
index-launch — narrates its execution through the same small vocabulary
of events, emitted at the points where trace spans were recorded
historically.  Consumers implement :class:`EventSink`; a controller fans
events out to its attached sinks through
:class:`~repro.obs.hub.ObsHub`.

Events are *zero-cost when unobserved*: controllers construct an
:class:`Event` only inside an ``if hub:`` guard, so a run with no sinks
attached allocates nothing (the regression test in
``tests/test_obs_overhead.py`` enforces this).

Timestamps are virtual seconds (wall seconds for the serial controller,
which has no virtual clock).  Events may be emitted out of timestamp
order — the simulator knows a span's end at submission time — so
consumers that need chronology should sort by ``t``.
"""

from __future__ import annotations

from typing import NamedTuple

#: A task entered a proc's ready queue (all inputs present).
TASK_ENQUEUED = "task_enqueued"
#: A task's callback began computing on a core (runtime overhead paid).
TASK_STARTED = "task_started"
#: A task's callback finished; ``dur`` is its compute time.
TASK_FINISHED = "task_finished"
#: A dataflow payload entered the wire (or the in-proc fast path).
MESSAGE_SENT = "message_sent"
#: A dataflow payload arrived at its destination proc.
MESSAGE_DELIVERED = "message_delivered"
#: Runtime bookkeeping time (``category``: dispatch, staging, serialize,
#: launch, spawn, lb, migrate, send, wasted, ...).
OVERHEAD = "overhead"
#: Charm++ moved a queued chare between PEs (load balancing).
MIGRATION = "migration"
#: A controller run began; ``label`` is the backend class name.
RUN_STARTED = "run_started"
#: A controller run completed; ``t`` and ``dur`` are the makespan.
RUN_FINISHED = "run_finished"

#: A planned fault fired (``category``: ``task`` for a transient task
#: fault, ``timeout`` for a per-task timeout detection, ``rank`` for a
#: permanent rank death, ``link`` for a dropped message).
FAULT_INJECTED = "fault.injected"
#: A failed attempt was rescheduled; ``dur`` is the backoff delay and
#: ``proc`` the rank the retry will run on.
TASK_RETRY = "task.retry"
#: A rank died permanently; everything it held is lost.
RANK_DEAD = "rank.dead"
#: Recovery re-placed a task from a dead rank onto a survivor
#: (``proc`` -> ``dst_proc``).
TASK_MIGRATED = "task.migrated"

#: Events emitted only by the fault-tolerance layer (:mod:`repro.faults`);
#: they appear in a stream only when a fault plan is installed.
FAULT_VOCABULARY = frozenset(
    {FAULT_INJECTED, TASK_RETRY, RANK_DEAD, TASK_MIGRATED}
)

#: A planned task map was installed for the run; ``category`` is the
#: planning strategy, ``dur`` the planner's estimated makespan.
SCHED_PLANNED = "sched.planned"
#: A balancer moved a queued task between procs (``proc`` ->
#: ``dst_proc``; ``nbytes`` is the buffered input state transferred).
SCHED_MIGRATED = "sched.migrated"
#: An idle proc stole a queued task (``proc`` is the victim,
#: ``dst_proc`` the thief); the matching ``sched.migrated`` follows.
SCHED_STEAL = "sched.steal"
#: A requested plan-level feature could not apply and the run degraded
#: gracefully: a ``compile=True`` run fell back to the interpreted
#: engine, or the local (real-core) backend ignored a feature that only
#: exists on the simulated clusters.  ``category`` names the blocker
#: (``"faults"``, ``"balancer"``, ``"telemetry"``, or ``"backend"``).
#: Emitted only when the feature was requested, so clean streams are
#: unchanged.
PLAN_FALLBACK = "plan.fallback"

#: Events emitted only by the scheduling layer (:mod:`repro.sched`);
#: they appear in a stream only when a planned map, balancer, or
#: ``compile=`` request is installed (Charm++'s built-in balancer keeps
#: its legacy ``migration`` events for compatibility).
SCHED_VOCABULARY = frozenset(
    {SCHED_PLANNED, SCHED_MIGRATED, SCHED_STEAL, PLAN_FALLBACK}
)

#: A task was handed to a free worker slot *right now* (real time).
#: Unlike ``task_started`` — which the local backend emits
#: retroactively when the attempt's future resolves — this event exists
#: so in-flight monitors see work the moment it lands on a core.
TASK_RUNNING = "task.running"

#: Events only the live plane's sink receives (:mod:`repro.obs.live`).
#: They are deliberately *not* part of :data:`VOCABULARY`: other sinks
#: never receive them, so recorded traces — and the golden determinism
#: streams — are byte-identical whether or not a run is being watched.
LIVE_VOCABULARY = frozenset({TASK_RUNNING})

#: A request entered :meth:`~repro.service.RunService.submit`
#: (``label`` is the tenant).
SERVICE_SUBMITTED = "service.submitted"
#: A submission was rejected at admission; ``category`` is the reason
#: (``"tenant-quota"`` or ``"queue-full"``).
SERVICE_REJECTED = "service.rejected"
#: A submission coalesced onto an identical in-flight execution.
SERVICE_DEDUP = "service.dedup"
#: A queued request was withdrawn by its submitter.
SERVICE_CANCELLED = "service.cancelled"
#: A service execution slot picked up a request.
SERVICE_RUN_STARTED = "service.run_started"
#: A service execution resolved; ``dur`` is wall seconds on the slot,
#: ``category`` is ``""`` on success or ``"error"``.
SERVICE_RUN_FINISHED = "service.run_finished"
#: A service-level SLO bound was violated; ``category`` carries the
#: violation message.
SERVICE_SLO_BREACH = "service.slo_breach"

#: Events emitted only by the run service (:mod:`repro.service`) into
#: its *service-level* sinks.  Like :data:`LIVE_VOCABULARY` they are not
#: part of :data:`VOCABULARY`: per-run sinks attached to a controller
#: never see them, so recorded run traces are unchanged whether a run
#: went through ``repro.run`` or through a service.
SERVICE_VOCABULARY = frozenset(
    {
        SERVICE_SUBMITTED,
        SERVICE_REJECTED,
        SERVICE_DEDUP,
        SERVICE_CANCELLED,
        SERVICE_RUN_STARTED,
        SERVICE_RUN_FINISHED,
        SERVICE_SLO_BREACH,
    }
)

#: The complete event vocabulary shared by all backends.
VOCABULARY = (
    frozenset(
        {
            TASK_ENQUEUED,
            TASK_STARTED,
            TASK_FINISHED,
            MESSAGE_SENT,
            MESSAGE_DELIVERED,
            OVERHEAD,
            MIGRATION,
            RUN_STARTED,
            RUN_FINISHED,
        }
    )
    | FAULT_VOCABULARY
    | SCHED_VOCABULARY
)

#: Lifecycle events every backend emits on every non-empty run
#: (``MIGRATION`` is conditional on the Charm++ load balancer acting).
CORE_VOCABULARY = frozenset(
    {
        TASK_ENQUEUED,
        TASK_STARTED,
        TASK_FINISHED,
        MESSAGE_SENT,
        MESSAGE_DELIVERED,
        OVERHEAD,
        RUN_STARTED,
        RUN_FINISHED,
    }
)


class Event(NamedTuple):
    """One structured observation of a controller run.

    A named tuple — immutable, hashable, equal by value, picklable —
    because one is built per emitted event: a frozen dataclass pays one
    ``object.__setattr__`` per field in ``__init__``, four times the
    cost.  Construct it by calling the class, never through ``_make``:
    the zero-allocation guard of ``tests/test_obs_overhead.py`` poisons
    ``__init__``.

    Attributes:
        type: one of the module-level event-type constants.
        t: virtual timestamp in seconds (event end for ``*_finished`` /
            ``message_delivered``; those carry the extent in ``dur``).
        proc: proc the event happened on (sender for messages; -1 for
            run-level events that belong to no proc).
        task: primary task id (producer for messages; -1 when N/A).
        dst_proc: receiving proc for messages and migrations.
        dst_task: consuming task for dataflow messages.
        dur: extent in virtual seconds (compute time, overhead time,
            send-to-delivery time).
        category: overhead category (matches the ``Stats`` categories).
        nbytes: payload size for messages and migrations.
        label: human-readable annotation (span label compatibility).
        parents: causal parents of a ``task_started`` event — the
            producer task id of every payload the attempt consumed, in
            arrival order (one entry per input slot, so a producer
            feeding several channels appears several times).  Only
            populated when an attached sink requests span context
            (``EventSink.wants_context``); plain sinks see the exact
            historical stream.  Together with the ``task``/``dst_task``
            pair on every message event, this makes an exported trace a
            causal DAG (task -> message -> task).
    """

    type: str
    t: float
    proc: int = -1
    task: int = -1
    dst_proc: int = -1
    dst_task: int = -1
    dur: float = 0.0
    category: str = ""
    nbytes: int = 0
    label: str = ""
    parents: tuple[int, ...] = ()

    def to_dict(self) -> dict:
        """Compact dict form: default-valued fields are dropped."""
        # Spelled out, not looped over ``fields()``: this runs once per
        # exported event.  Declaration order is the exported key order.
        out: dict = {"type": self.type, "t": self.t}
        if self.proc != -1:
            out["proc"] = self.proc
        if self.task != -1:
            out["task"] = self.task
        if self.dst_proc != -1:
            out["dst_proc"] = self.dst_proc
        if self.dst_task != -1:
            out["dst_task"] = self.dst_task
        if self.dur != 0.0:
            out["dur"] = self.dur
        if self.category != "":
            out["category"] = self.category
        if self.nbytes != 0:
            out["nbytes"] = self.nbytes
        if self.label != "":
            out["label"] = self.label
        if self.parents != ():
            out["parents"] = list(self.parents)
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "Event":
        """Inverse of :meth:`to_dict` (ignores unknown keys)."""
        kw = {k: v for k, v in d.items() if k in _FIELDS}
        if "parents" in kw:
            # JSON has no tuples; restore the canonical immutable form.
            kw["parents"] = tuple(kw["parents"])
        return cls(**kw)


#: ``Event``'s field names, for :meth:`Event.from_dict`'s key filter.
_FIELDS = frozenset(Event._fields)


class EventSink:
    """Receives the event stream of one or more controller runs.

    Subclasses override :meth:`emit`; :meth:`close` flushes any buffered
    state (file exporters write their output here), and :meth:`abort`
    hears a run that raised (the flight recorder dumps its ring there,
    the live plane stamps ``aborted``).  A sink may be
    attached to several controllers in sequence — runs are delimited by
    ``run_started`` / ``run_finished`` events.

    ``wants_context`` opts the sink into *span-context threading*: when
    any attached sink sets it, controllers track which producer fed each
    input slot and stamp :attr:`Event.parents` onto ``task_started``
    events.  It defaults to False so existing consumers (and the golden
    determinism streams) observe the exact historical event shapes.
    """

    #: Ask controllers to thread causal parent ids onto task events.
    wants_context: bool = False

    def emit(self, event: Event) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources (idempotent)."""

    def abort(self, exc: BaseException | None = None) -> None:
        """The run died mid-stream with ``exc``; no ``run_finished``
        follows.  Every controller calls it once on each attached sink
        from its exception path (a SIGTERM'd ``local`` run included)."""


class ListSink(EventSink):
    """Buffers every event in memory (tests, ad-hoc analysis)."""

    def __init__(self, wants_context: bool = False) -> None:
        self.events: list[Event] = []
        self.wants_context = wants_context

    def emit(self, event: Event) -> None:
        self.events.append(event)

    def by_type(self, type_: str) -> list[Event]:
        """All buffered events of one type, in emission order."""
        return [e for e in self.events if e.type == type_]

    def types(self) -> set[str]:
        """The set of event types observed so far."""
        return {e.type for e in self.events}
