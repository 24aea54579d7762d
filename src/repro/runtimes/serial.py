"""Serial controller: correct-order in-process execution.

Section I: *"Any backend can execute task graphs of arbitrary size, on a
single node or even serially, while guaranteeing a correct order of
execution."*  The serial controller is that guarantee in its simplest
form: a deterministic readiness-queue execution with no simulated cluster
at all.  It is the reference every other backend is regression-tested
against, and the easiest place to debug a new dataflow.

It is also the *oracle*: every other backend executes through the one
:class:`~repro.runtimes.dataflow.DataflowKernel`, and this controller
deliberately does not.  Its slot store and ready loop below are the
naive, obviously-correct spelling of the dataflow contract, and the
conformance, random-DAG, local-property and golden suites compare the
kernel's drivers against it — a bug in the kernel cannot hide in both.
From :mod:`repro.runtimes.dataflow` it takes only the
:class:`~repro.runtimes.dataflow.RunScaffold`, which has no dataflow
semantics.

Observability: the serial controller speaks the same event vocabulary as
the distributed backends (see :mod:`repro.obs.events`), with everything
on proc 0 of a wall-clock timeline.  Runtime overhead is genuinely zero
here, so its ``overhead`` events carry ``dur=0.0`` — emitted anyway so
one consumer handles every backend uniformly.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Sequence

from repro.core.callbacks import CallbackRegistry
from repro.core.errors import ControllerError
from repro.core.graph import TaskGraph
from repro.core.ids import TNULL, TaskId, is_real_task
from repro.core.payload import Payload
from repro.obs.events import (
    MESSAGE_DELIVERED,
    MESSAGE_SENT,
    TASK_ENQUEUED,
    Event,
    EventSink,
)
from repro.runtimes.controller import Controller
from repro.runtimes.dataflow import RunScaffold
from repro.runtimes.result import RunResult

#: Causal-parent accumulator; only called when a context-requesting sink
#: observes the run (poisoned by tests/test_obs_overhead.py).
_parent_list = list


class SerialController(Controller):
    """Run the whole graph in the calling thread, tasks in ready order.

    Ties are broken by ascending task id, so a given graph + inputs always
    executes in the same order.  ``RunResult.stats.makespan`` reports the
    summed real wall time of the callbacks (a serial run has no virtual
    clock).

    Args:
        sinks: observability sinks receiving the run's lifecycle events
            (every event on proc 0, wall-clock timestamps).
        telemetry: ``True`` turns on the latency sketches (see
            :mod:`repro.obs.telemetry`); same contract as the simulated
            controllers — off by default, zero allocations when off.
    """

    def __init__(
        self,
        sinks: Sequence[EventSink] = (),
        telemetry: bool | None = None,
    ) -> None:
        super().__init__(sinks, telemetry)

    def _execute(
        self,
        graph: TaskGraph,
        registry: CallbackRegistry,
        inputs: dict[TaskId, list[Payload]],
    ) -> RunResult:
        # No rank count: the reference has no live plane.
        run = RunScaffold(self, graph)
        obs, ctx = run.obs, run.ctx
        t_task, t_queue, t_msg = run.t_task, run.t_queue, run.t_msg
        arrived: dict[TaskId, list[TaskId]] = {}
        m_task_seconds = run.m_task_seconds
        m_message_bytes = run.m_message_bytes
        queue_peak = 0
        enq_at: dict[TaskId, float] = {}

        stats = run.stats
        messages = sent_bytes = 0
        slots: dict[TaskId, list[Payload | None]] = {}
        remaining: dict[TaskId, int] = {}
        ready: deque[TaskId] = deque()
        wall_total = 0.0  # doubles as the event timeline

        def ensure(tid: TaskId) -> None:
            if tid not in slots:
                t = graph.task(tid)
                slots[tid] = [None] * t.n_inputs
                remaining[tid] = t.n_inputs

        def deposit(tid: TaskId, slot: int, payload: Payload) -> None:
            nonlocal queue_peak
            ensure(tid)
            if slots[tid][slot] is not None:
                raise ControllerError(
                    f"task {tid} input slot {slot} filled twice"
                )
            slots[tid][slot] = payload
            remaining[tid] -= 1
            if remaining[tid] == 0:
                ready.append(tid)
                if len(ready) > queue_peak:
                    queue_peak = len(ready)
                if t_queue is not None:
                    enq_at[tid] = wall_total
                if obs:
                    obs.emit(
                        Event(TASK_ENQUEUED, wall_total, proc=0, task=tid)
                    )

        run.begin()
        for tid, payloads in sorted(inputs.items()):
            task = graph.task(tid)
            for slot, payload in zip(task.external_inputs(), payloads):
                deposit(tid, slot, payload)

        executed = 0
        # Per (producer, consumer) pair, the next slot index to fill, so
        # multi-channel edges between the same pair stay ordered.
        cursor: dict[tuple[TaskId, TaskId], int] = {}
        while ready:
            batch = sorted(ready)
            ready.clear()
            for tid in batch:
                task = graph.task(tid)
                t_start = wall_total
                t0 = time.perf_counter()
                try:
                    outputs = registry.invoke(
                        task.callback,
                        [p for p in slots.pop(tid)],  # type: ignore[misc]
                        tid,
                        task.n_outputs,
                    )
                except BaseException as exc:
                    run.abort(exc)
                    raise
                elapsed = time.perf_counter() - t0
                wall_total += elapsed
                m_task_seconds.observe(elapsed)
                if t_task is not None:
                    t_task.observe(elapsed)
                    t_queue.observe(
                        max(0.0, t_start - enq_at.pop(tid, t_start))
                    )
                stats.add_callback(task.callback, elapsed)
                executed += 1
                if obs:
                    run.emit_attempt(
                        0, tid, t_start, wall_total, elapsed,
                        arrived=arrived.get(tid) if ctx else None,
                    )
                for ch, (channel, payload) in enumerate(
                    zip(task.outgoing, outputs)
                ):
                    if not channel or TNULL in channel:
                        run.outputs.setdefault(tid, {})[ch] = payload
                    for dst in channel:
                        if not is_real_task(dst):
                            continue
                        ensure(dst)
                        key = (tid, dst)
                        dst_task = graph.task(dst)
                        slot_list = dst_task.input_slots_from(tid)
                        idx = cursor.get(key, 0)
                        if idx >= len(slot_list):
                            raise ControllerError(
                                f"task {tid} sent more messages to {dst} "
                                f"than it has slots"
                            )
                        cursor[key] = idx + 1
                        if ctx:
                            arr = arrived.get(dst)
                            if arr is None:
                                arr = arrived[dst] = _parent_list()
                            arr.append(tid)
                        if obs:
                            edge = dict(
                                proc=0, dst_proc=0, task=tid, dst_task=dst,
                                nbytes=payload.nbytes,
                                label=f"t{tid}->t{dst}",
                            )
                            obs.emit(Event(MESSAGE_SENT, wall_total, **edge))
                            obs.emit(
                                Event(MESSAGE_DELIVERED, wall_total, **edge)
                            )
                        deposit(dst, slot_list[idx], payload)
                        m_message_bytes.observe(payload.nbytes)
                        if t_msg is not None:
                            # In-process handoff: zero-latency delivery,
                            # kept so serial sketch sets match simulated.
                            t_msg.observe(0.0)
                        messages += 1
                        sent_bytes += payload.nbytes
        if executed != graph.size():
            stuck = [t for t, r in remaining.items() if r > 0][:8]
            err = ControllerError(
                f"dataflow stalled: executed {executed} of {graph.size()} "
                f"tasks; waiting tasks include {stuck}"
            )
            run.abort(err)
            raise err
        stats.add("compute", wall_total)
        final = stats.frozen(wall_total, executed, messages, sent_bytes)
        run.finish(final, 0, [queue_peak], [1.0] if wall_total > 0 else [])
        return run.result(final)
