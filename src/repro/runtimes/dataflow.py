"""What every backend shares: the run scaffolding and the dataflow kernel.

Section IV of the paper: all controllers derive from one base class and
differ only in *where and when* a ready task runs.  This module is the
part that is the same, in two halves that know nothing of each other.

**Run scaffolding** (:class:`RunScaffold`) has no dataflow semantics: it
builds, once per run, everything the run is observed through — sinks,
metrics registry, the opt-in telemetry sketches, the opt-in live plane,
the hub and its two gates — and owns the events and metrics that read
the same on every backend: the ``run_started`` / ``sched.planned`` /
``plan.fallback`` prologue, the overhead / started / finished triple of
one attempt, the abort every attached sink hears, and the counter and
gauge epilogue.  Every controller uses it, the serial reference included.

**The dataflow kernel** (:class:`DataflowKernel`) is the state machine of
a run: flat per-task state preallocated from the graph's lowered tables
(:class:`~repro.core.tables.GraphTables`), input deposit, output
routing, and attempt accounting.  It answers two questions — *what is
ready* (:meth:`~DataflowKernel.deposit` returns True when a task's last
slot filled) and *who receives this output*
(:meth:`~DataflowKernel.route` hands each ``(consumer, payload)`` to the
driver) — and never *when* or *where*: clocks, queues, cores, processes
and placement belong to the driver.  Two drivers sit on it, the
virtual-time :class:`~repro.runtimes.simbase.SimController` (on payload
sizes) and the pool :class:`~repro.runtimes.local.LocalPoolController`.
The serial controller deliberately does not: it keeps a naive slot store
of its own as the oracle the kernel is tested against.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from repro.core.errors import FaultError
from repro.core.graph import TaskGraph
from repro.core.ids import TaskId
from repro.core.payload import Payload
from repro.core.task import Task
from repro.faults.plan import FaultPlan
from repro.faults.policy import RetryPolicy
from repro.obs.events import (
    FAULT_INJECTED,
    OVERHEAD,
    PLAN_FALLBACK,
    RUN_FINISHED,
    RUN_STARTED,
    SCHED_PLANNED,
    TASK_ENQUEUED,
    TASK_FINISHED,
    TASK_RETRY,
    TASK_STARTED,
    Event,
)
from repro.obs.hub import ObsHub
from repro.obs.live import attach_live
from repro.obs.metrics import MetricsRegistry
from repro.runtimes.result import RunResult


def _task_label(tid: TaskId, suffix: str = "") -> str:
    """Task-attempt label; only built when a sink observes the run."""
    return f"t{tid}{suffix}"


# ---------------------------------------------------------------------- #
# Run scaffolding
# ---------------------------------------------------------------------- #


class RunScaffold:
    """Everything one run is observed through, built once per run.

    ``controller`` supplies ``_sinks`` and ``telemetry``; ``n_ranks`` is
    the rank count of the live plane and ``None`` on a backend without
    one (the serial reference), which then never consults ``live=`` or
    ``$REPRO_LIVE_DIR``.

    Everything optional is ``None`` when off, so emission sites guard
    with one identity test and an unobserved run allocates no event,
    label, sketch or live object (enforced by
    ``tests/test_obs_overhead.py``): ``obs`` is the hub when a sink
    (the live plane's included) listens, ``ctx`` is True when a sink
    asked for causal parents, ``t_task`` / ``t_queue`` / ``t_msg`` are
    the telemetry sketches.
    """

    __slots__ = (
        "name", "result", "metrics", "live", "hub", "obs", "ctx",
        "t_task", "t_queue", "t_msg", "m_task_seconds", "m_message_bytes",
    )

    def __init__(self, controller, graph: TaskGraph, n_ranks: int | None = None):
        self.name = type(controller).__name__
        sinks = list(controller._sinks)
        self.result = RunResult()
        metrics = self.metrics = MetricsRegistry()
        if controller.telemetry:
            self.t_task = metrics.sketch("task_seconds")
            self.t_queue = metrics.sketch("queue_wait_seconds")
            self.t_msg = metrics.sketch("message_seconds")
        else:
            self.t_task = self.t_queue = self.t_msg = None
        live = None
        if n_ranks is not None:
            live = attach_live(
                controller.live,
                total=graph.size(),
                runtime=self.name,
                n_ranks=n_ranks,
                graph=graph,
                metrics=metrics,
            )
            if live is not None:
                sinks.append(live)
        self.live = live
        hub = self.hub = ObsHub(sinks)
        # `None` rather than an empty hub when unobserved: the hot-path
        # guards become a C-level identity test instead of calling
        # ObsHub.__bool__ tens of thousands of times per run.
        self.obs = hub if sinks else None
        # Causal-parent tracking is a second opt-in on top of the sink
        # gate (exporters ask for it); plain sinks keep the exact
        # historical event shapes.
        self.ctx = hub.wants_context if sinks else False
        self.m_task_seconds = metrics.histogram("task_compute_seconds")
        self.m_message_bytes = metrics.histogram("message_nbytes")

    def begin(self, task_map=None) -> None:
        """``run_started``, then ``sched.planned`` when ``task_map`` came
        out of the planner (plain maps emit nothing)."""
        obs = self.obs
        if obs is None:
            return
        obs.emit(Event(RUN_STARTED, 0.0, label=self.name))
        if getattr(task_map, "plan_seconds", None) is not None:
            obs.emit(
                Event(
                    SCHED_PLANNED,
                    0.0,
                    dur=getattr(task_map, "est_makespan", 0.0),
                    category=getattr(task_map, "strategy", "planned"),
                    label=f"planned placement ({task_map.strategy})",
                )
            )

    def plan_fallback(self, reason: str, label: str | None = None) -> None:
        """Narrate a requested feature the run executes without."""
        if self.obs is not None:
            self.obs.emit(
                Event(
                    PLAN_FALLBACK,
                    0.0,
                    category=reason,
                    label=label or f"compiled plan unavailable: {reason}",
                )
            )

    def emit_attempt(
        self,
        proc: int,
        tid: TaskId,
        start: float,
        end: float,
        dur: float,
        overhead: float = 0.0,
        category: str = "dispatch",
        suffix: str = "",
        arrived: "list[TaskId] | None" = None,
    ) -> None:
        """The overhead / started / finished triple of one attempt.

        Call only on an observed run.  ``start`` is where compute began
        (the ``overhead`` seconds of ``category`` end there), ``arrived``
        the producers that fed the attempt when context is tracked.
        """
        emit = self.hub.emit
        label = _task_label(tid, suffix)
        # Positional, in field order (type, t, proc, task, dst_proc,
        # dst_task, dur, category, nbytes, label, parents).
        emit(Event(OVERHEAD, start, proc, tid, -1, -1, overhead, category))
        emit(
            Event(
                TASK_STARTED, start, proc, tid, -1, -1, 0.0, "", 0, label,
                tuple(arrived) if arrived else (),
            )
        )
        emit(Event(TASK_FINISHED, end, proc, tid, -1, -1, dur, "", 0, label))

    def abort(self, exc: BaseException) -> None:
        """The run died mid-stream: tell every attached sink, once."""
        for sink in {id(s): s for s in self.hub.sinks}.values():
            sink.abort(exc)

    def finish(
        self,
        retries: int,
        queue_peaks: "list[int]",
        utilization: "list[float]",
        task_map=None,
    ) -> None:
        """``run_finished`` plus the counters and load gauges every
        backend reports, read off ``result.stats``.  ``utilization`` is
        the busy fraction per rank, empty when the run took no time."""
        stats = self.result.stats
        if self.obs is not None:
            self.obs.emit(
                Event(
                    RUN_FINISHED, stats.makespan, dur=stats.makespan,
                    label=self.name,
                )
            )
        m = self.metrics
        m.counter("tasks_executed").inc(stats.tasks_executed)
        m.counter("messages_sent").inc(stats.messages)
        m.counter("bytes_sent").inc(stats.bytes_sent)
        m.counter("retries").inc(retries)
        plan_seconds = getattr(task_map, "plan_seconds", None)
        if plan_seconds is not None:
            # Scheduler metrics exist only when the feature is opted into,
            # so clean runs keep their exact metric set (and goldens).
            m.gauge("placement_plan_seconds").set(plan_seconds)
        m.gauge("queue_depth_peak").set(float(max(queue_peaks, default=0)))
        m.gauge("queue_depth_peak_mean").set(
            sum(queue_peaks) / len(queue_peaks) if queue_peaks else 0.0
        )
        if utilization:
            mean = sum(utilization) / len(utilization)
            m.gauge("utilization_mean").set(mean)
            m.gauge("utilization_max").set(max(utilization))
            m.gauge("utilization_min").set(min(utilization))
            if mean > 0:
                m.gauge("imbalance").set(max(utilization) / mean)


# ---------------------------------------------------------------------- #
# The dataflow kernel
# ---------------------------------------------------------------------- #

#: Causal-parent accumulator; only called when a context-requesting sink
#: observes the run (poisoned by tests/test_obs_overhead.py).
_parent_list = list


#: ``DataflowKernel.remaining`` past zero: the task sits in (or runs off)
#: a run queue, and it completed.  Zero itself is "ready".
_QUEUED, _DONE = -1, -2


class DataflowKernel:
    """Input slots, routing and attempt accounting of one run.

    The graph's :class:`~repro.core.tables.GraphTables` say, per edge,
    which slot it fills; the kernel keeps what changes during a run,
    preallocated from the tables — one flat input-slot list for the whole
    graph and one counter per task.  What only some runs or some tasks
    need (failed-attempt counts, wait stamps, causal parents) is sparse.

    Args:
        graph: the run's task graph.
        run: the run's scaffolding (events, sketches, result).
        error: exception class of dataflow-contract violations and of
            the stall diagnostic (``SimulationError`` on the simulated
            drivers, ``ControllerError`` on the pool).
        fault_plan: its transient task faults are materialized into a
            fresh per-run budget (running twice injects them twice).
        policy: retry budget and backoff of failed attempts.
        sizes / overflow: make a *sized* kernel, whose slots and edges
            carry ``nbytes`` instead of payloads: the size in each flat
            input slot, and of each edge with no slot left (by edge).
    """

    __slots__ = (
        "tables", "slots", "remaining", "attempts", "enq_t", "arrived",
        "done", "total", "budget", "policy", "retries", "_sizes", "_overflow",
        "_outputs", "_observe_bytes", "_error", "_obs", "_ctx", "_track_wait",
    )

    def __init__(
        self,
        graph: TaskGraph,
        run: RunScaffold,
        error: type[Exception],
        fault_plan: FaultPlan | None = None,
        policy: RetryPolicy | None = None,
        sizes: "Sequence[int] | None" = None,
        overflow: "Mapping[int, int] | None" = None,
    ) -> None:
        tables = self.tables = graph.tables()
        #: every input slot of the graph (payload or size), laid out as
        #: ``tables.slot_start``.
        self.slots: list[Payload | int | None] = [None] * tables.n_slots
        #: per task id: its empty slots, then 0 (ready), queued, done.
        self.remaining = tables.n_inputs.copy()
        #: failed attempts so far, of the tasks that had any.
        self.attempts: dict[TaskId, int] = {}
        #: last enqueue timestamp per task; telemetry-enabled runs only
        #: (feeds the queue-wait sketch).
        self.enq_t: dict[TaskId, float] = {}
        #: producer of each deposited payload, in arrival order, per
        #: task; filled only when span context is requested.
        self.arrived: dict[TaskId, list[TaskId]] = {}
        self.done: set[TaskId] = set()
        self.total = tables.n
        self.budget = fault_plan.task_budget() if fault_plan is not None else {}
        self.policy = policy
        #: failed attempts so far (each is also one injected fault).
        self.retries = 0
        self._sizes = sizes
        self._overflow = overflow
        self._outputs = run.result.outputs
        self._observe_bytes = run.m_message_bytes.observe
        self._error = error
        self._obs = run.obs
        self._ctx = run.ctx
        self._track_wait = run.t_queue is not None

    # -- per-task state ------------------------------------------------ #

    def inputs(self, tid: TaskId, release: bool = False) -> list:
        """What was deposited on ``tid`` (payloads, or sizes on a sized
        kernel), in slot order; ``release`` empties the slots (the caller
        keeps what a retry needs)."""
        a = self.tables.slot_start[tid]
        b = a + self.tables.n_inputs[tid]
        inputs = self.slots[a:b]
        if release:
            self.slots[a:b] = [None] * (b - a)
        return inputs  # type: ignore[return-value]

    def reset(self, tid: TaskId) -> Task:
        """Forget everything ``tid`` had buffered or booked (its rank
        died, or it replays): all its slots are empty again."""
        self.inputs(tid, release=True)
        self.remaining[tid] = self.tables.n_inputs[tid]
        self.attempts.pop(tid, None)
        self.arrived.pop(tid, None)
        self.done.discard(tid)
        return self.tables.tasks[tid]

    # -- what is ready ------------------------------------------------- #

    def deposit(
        self, tid: TaskId, slot: int, payload: "Payload | int", producer: TaskId
    ) -> bool:
        """Fill flat slot ``slot`` of ``tid`` — the one the tables
        resolved for this edge, whatever order its messages arrive in;
        True when that was the last empty one (the task is ready)."""
        left = self.remaining[tid]
        slots = self.slots
        if left <= 0 or slot < 0 or slots[slot] is not None:
            if left == _DONE:
                raise self._error(
                    f"task {tid} received a message from {producer} after "
                    f"it already completed (producer sends more messages "
                    f"than the consumer has slots)"
                )
            raise self._error(
                f"task {tid} received more messages from {producer} than "
                f"it has slots"
            )
        slots[slot] = payload
        if self._ctx and producer >= 0:  # is_real_task, inlined
            arr = self.arrived.get(tid)
            if arr is None:
                arr = self.arrived[tid] = _parent_list()
            arr.append(producer)
        self.remaining[tid] = left - 1
        return left == 1

    def enqueued(self, tid: TaskId, proc: int, now: float) -> None:
        """``tid`` entered a driver's run queue (first time or retry):
        guard against a double entry, stamp the wait clock, announce."""
        if self.remaining[tid] < 0:
            raise self._error(f"task {tid} enqueued twice")
        self.remaining[tid] = _QUEUED
        if self._track_wait:
            self.enq_t[tid] = now
        if self._obs is not None:
            self._obs.emit(Event(TASK_ENQUEUED, now, proc, tid))

    def dequeued(self, tid: TaskId) -> None:
        """``tid`` left a run queue without completing (it migrates, or
        its attempt failed): it is ready, and may be enqueued again."""
        self.remaining[tid] = 0

    def stalled(self) -> Exception:
        """The diagnostic of a run that ended with tasks still waiting."""
        remaining, n_inputs = self.remaining, self.tables.n_inputs
        stuck = [
            tid for tid in self.tables.ids if 0 < remaining[tid] < n_inputs[tid]
        ]
        return self._error(
            f"dataflow stalled: executed {len(self.done)} of {self.total} "
            f"tasks; waiting tasks include {stuck[:8]}"
        )

    # -- who receives this output -------------------------------------- #

    def route(
        self,
        tid: TaskId,
        outputs: "Sequence[Payload] | Mapping[int, Payload] | None",
        origin: int,
        deliver: Callable[[int, TaskId, TaskId, int, "Payload | int"], None],
        only: "set[TaskId] | None" = None,
    ) -> None:
        """``tid`` completed: retire it, collect sink channels into the
        result and hand every dataflow edge to the driver's transport —
        ``deliver(origin, tid, consumer, slot, payload)`` — in channel
        order, ``slot`` being what :meth:`deposit` takes.  The kernel
        keeps no reference to its driver.

        ``outputs`` is indexed by channel; a sized kernel delivers sizes
        and reads it only for returned channels (``None`` if none).

        ``only`` restricts delivery to those consumers and collects
        nothing — a lineage replay re-feeds just the tasks that lost this
        producer's payloads; the result already has the first completion.
        """
        tables = self.tables
        self.done.add(tid)
        self.remaining[tid] = _DONE
        if self._ctx:
            self.arrived.pop(tid, None)
        edge_ch, edge_dst = tables.edge_ch, tables.edge_dst
        edge_slot, observe = tables.edge_slot, self._observe_bytes
        sizes = self._sizes
        first = tables.edge_start[tid]
        for e in range(first, first + tables.n_edges[tid]):
            dst = edge_dst[e]
            if dst >= 0:  # is_real_task, inlined
                if only is None or dst in only:
                    slot = edge_slot[e]
                    if sizes is None:
                        payload = outputs[edge_ch[e]]
                        observe(payload.nbytes)
                    else:
                        payload = sizes[slot] if slot >= 0 else self._overflow[e]
                        observe(payload)
                    deliver(origin, tid, dst, slot, payload)
            elif only is None:
                self._outputs.setdefault(tid, {})[edge_ch[e]] = outputs[edge_ch[e]]

    # -- attempt accounting -------------------------------------------- #

    def take_fault(self, tid: TaskId) -> bool:
        """Consume one planned transient fault of ``tid``, if any is left."""
        if self.budget.get(tid, 0) > 0:
            self.budget[tid] -= 1
            return True
        return False

    def fail(self, tid: TaskId, proc: int, start: float, kind: str) -> None:
        """Book one failed attempt (``kind``: ``task`` for an injected
        fault, ``timeout``, ``error`` for a real exception) that began
        at ``start``; follow with the attempt's triple, then
        :meth:`retry` once the attempt's time is spent."""
        self.retries += 1
        self.attempts[tid] = self.attempts.get(tid, 0) + 1
        if self._obs is not None:
            self._obs.emit(
                Event(
                    FAULT_INJECTED,
                    start,
                    proc=proc,
                    task=tid,
                    category=kind,
                    label=_task_label(
                        tid, " timeout" if kind == "timeout" else " fault"
                    ),
                )
            )

    def retry(self, tid: TaskId, proc: int, now: float) -> float:
        """The backoff before ``tid``'s next attempt on ``proc``; the
        driver re-enqueues it after that long (:meth:`enqueued` again).

        Raises:
            FaultError: the task used up ``policy.max_attempts``.
        """
        self.dequeued(tid)
        attempts = self.attempts[tid]
        policy = self.policy
        if not policy.allows_attempt(attempts):
            raise FaultError(
                f"task {tid} failed {attempts} attempts "
                f"(RetryPolicy.max_attempts={policy.max_attempts})"
            )
        delay = policy.delay(tid, attempts)
        if self._obs is not None:
            self._obs.emit(
                Event(
                    TASK_RETRY,
                    now,
                    proc=proc,
                    task=tid,
                    dur=delay,
                    label=_task_label(tid, f" retry #{attempts}"),
                )
            )
        return delay
