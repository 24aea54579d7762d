"""The one-call API: :func:`repro.run` — and its service-backed twin,
:func:`repro.submit`.

The controller protocol (construct, ``initialize``, ``register_callback``
per task type, ``run``) mirrors the paper's Listing 1 and stays the
primitive; this facade folds the whole ceremony into a single call for
the common case — pick a runtime by name, hand over the graph, the
callbacks, and the inputs::

    import repro
    from repro.graphs import Reduction

    graph = Reduction(leaves=16, valence=4)
    result = repro.run(
        graph,
        callbacks={
            graph.LEAF: lambda ins, tid: [ins[0]],
            graph.REDUCE: lambda ins, tid: [Payload(sum(p.data for p in ins))],
            graph.ROOT: lambda ins, tid: [Payload(sum(p.data for p in ins))],
        },
        inputs={t: Payload(1) for t in graph.leaf_ids()},
        runtime="mpi",
        n_procs=4,
    )

Every scheduling/fault/observability knob threads straight through:
``task_map`` (including :func:`repro.sched.plan_placement`'s planned
maps), ``cost_model``, ``fault_plan``/``retry_policy``, ``balancer``,
and ``sinks``.

``run()`` is ``RunRequest(...).build().run(inputs)`` — Listing 1 in the
calling thread, with nothing else behind it.  :func:`repro.submit` is
the asynchronous form: it enqueues the same request onto a shared
process-wide :class:`~repro.service.RunService`, which adds queueing,
coalescing and caches around the same two calls (so results are
bit-identical between the entry points) and returns a
:class:`~repro.service.RunHandle` immediately.
"""

from __future__ import annotations

import threading
from typing import Mapping, Sequence

from repro.core.callbacks import TaskCallback
from repro.core.graph import TaskGraph
from repro.core.ids import CallbackId, TaskId
from repro.core.taskmap import TaskMap
from repro.obs.events import EventSink
from repro.runtimes.controller import Controller, InitialInput
from repro.runtimes.result import RunResult
from repro.service.handle import RunHandle
from repro.service.request import RunRequest
from repro.service.service import RunService

#: The shared background service behind :func:`repro.submit`.
_SHARED: RunService | None = None
_SERVICE_LOCK = threading.Lock()


def default_service() -> RunService:
    """The lazily-created process-wide service behind :func:`submit`.

    Created on first use with :data:`~repro.service.DEFAULT_WORKERS`
    controller slots and cross-tenant graph/plan sharing enabled.  For
    quotas, SLOs, or snapshot wiring, construct an explicit
    :class:`~repro.service.RunService` instead.
    """
    global _SHARED
    svc = _SHARED
    if svc is None or svc.closed:
        with _SERVICE_LOCK:
            svc = _SHARED
            if svc is None or svc.closed:
                svc = _SHARED = RunService(name="repro-shared")
    return svc


def run(
    graph: TaskGraph,
    callbacks: Mapping[CallbackId, TaskCallback],
    inputs: Mapping[TaskId, InitialInput],
    runtime: str | type[Controller] = "mpi",
    n_procs: int | None = None,
    *,
    task_map: TaskMap | None = None,
    sinks: Sequence[EventSink] = (),
    **kwargs,
) -> RunResult:
    """Execute ``graph`` on a named runtime in one call.

    Args:
        graph: the dataflow to execute.
        callbacks: one implementation per task type (callback id), as
            returned by ``graph.callbacks()``.
        inputs: payloads for every EXTERNAL input slot, keyed by task id.
        runtime: a :data:`repro.runtimes.REGISTRY` name (``"serial"``,
            ``"mpi"``, ``"blocking-mpi"``, ``"charm"``, ``"legion-spmd"``,
            ``"legion-index"``, ``"local"``) or a controller class.
            ``"local"`` is the only backend that executes on the host's
            real cores (see :mod:`repro.runtimes.local`); the rest
            simulate a cluster on a virtual clock.
        n_procs: simulated cluster size (required except for
            ``"serial"``; for ``"local"`` it is the optional worker-pool
            size).
        task_map: explicit placement for the backends that take one
            (``mpi``, ``blocking-mpi``, ``legion-spmd``, ``local``);
            pass a :func:`repro.sched.plan_placement` result for
            cost-aware placement.
        sinks: observability sinks attached for this run — the one way
            to attach one: a kept trace is a
            :class:`~repro.obs.events.ListSink` (read ``sink.events``),
            a post-mortem ring a
            :class:`~repro.obs.telemetry.FlightRecorder`.  Every sink
            hears :meth:`~repro.obs.events.EventSink.abort` when the run
            raises.
        **kwargs: any :class:`~repro.service.RunOptions` field —
            ``cost_model``, ``machine``, ``costs``, ``cores_per_proc``,
            ``fault_plan``, ``retry_policy``, ``balancer``,
            ``telemetry`` (``True`` for streaming p50/p95/p99 latency
            sketches on ``result.metrics``),
            ``live`` (a status directory path or a
            :class:`~repro.obs.live.LiveConfig` to write in-flight
            progress/ETA/straggler snapshots for ``python -m repro.obs
            watch`` / ``serve``; ``$REPRO_LIVE_DIR`` arms every run and
            is the directory ``live=True`` needs),
            ``compile`` (``True`` to lower static runs into cached
            ahead-of-time plans reused across invocations: an
            unobserved run records its simulated timing on the plan and
            later ones with equal task durations and payload sizes
            reuse it instead of simulating — see
            :mod:`repro.sched.compile`; results are bit-identical and
            dynamic runs fall back automatically), ...  Unknown names
            are rejected with a did-you-mean hint.

    Returns:
        The :class:`~repro.runtimes.result.RunResult` with the returned
        payloads, timing statistics, and metrics.

    Raises:
        ControllerError: unknown runtime name (the message lists the
            valid ones), missing ``n_procs``, a kwarg the chosen backend
            does not support (or an unknown option name — the message
            suggests the closest valid one), or a callback/input
            mismatch.
    """
    request = RunRequest(
        graph,
        callbacks,
        inputs,
        runtime=runtime,
        n_procs=n_procs,
        options={"task_map": task_map, **kwargs},
        sinks=sinks,
    )
    return request.build().run(request.inputs)


def submit(
    graph: TaskGraph,
    callbacks: Mapping[CallbackId, TaskCallback],
    inputs: Mapping[TaskId, InitialInput],
    runtime: str | type[Controller] = "mpi",
    n_procs: int | None = None,
    *,
    tenant: str = "default",
    task_map: TaskMap | None = None,
    sinks: Sequence[EventSink] = (),
    service: RunService | None = None,
    **kwargs,
) -> RunHandle:
    """Enqueue a run and return immediately with a handle.

    Same arguments as :func:`run` plus ``tenant`` (the fair-share
    accounting bucket) and ``service`` (an explicit
    :class:`~repro.service.RunService`; default is the shared
    process-wide one from :func:`default_service`).  The returned
    :class:`~repro.service.RunHandle` resolves to exactly what
    :func:`run` would have returned; identical concurrent submissions
    coalesce into one execution.

    Raises:
        AdmissionError: the service rejected the submission
            (``reason`` is ``"tenant-quota"`` or ``"queue-full"``).
        ControllerError: unknown runtime or option name.
    """
    request = RunRequest(
        graph,
        callbacks,
        inputs,
        runtime=runtime,
        n_procs=n_procs,
        tenant=tenant,
        options={"task_map": task_map, **kwargs},
        sinks=sinks,
    )
    svc = service if service is not None else default_service()
    return svc.submit(request)
