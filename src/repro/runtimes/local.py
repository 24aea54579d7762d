"""Local pool controller: real execution on the host's cores.

Every other backend in :mod:`repro.runtimes` *simulates* parallelism on
a discrete-event virtual clock inside one process.  This controller is
the real thing: the same abstract ``TaskGraph``/``TaskMap`` program is
executed by worker processes (or threads, or inline in the calling
thread) on the host's actual cores.  As in the paper, callbacks are
registered once and tasks exchange only ids and payloads: a process-mode
run pickles its callback table once, installs it once per worker, and
each task message is ``(callback id, task id, payloads)``.  Workers are
forked at the first process-mode run and kept warm for the next one
(:func:`shutdown_workers` reaps them; ``atexit`` does too).

The execution model is a dependency-driven coordinator, in the spirit of
Parsl's DataFlowKernel split between one dependency tracker and
pluggable executors: the dataflow state is the same
:class:`~repro.runtimes.dataflow.DataflowKernel` the simulated backends
run on, and this module is its *pool driver* — it dispatches each task
the kernel reports ready to an executor slot and feeds returned payloads
back through the kernel's routing.  Because callbacks are pure functions
of their inputs and slot filling is determined by graph structure alone,
**outputs are bit-identical to the serial reference regardless of worker
scheduling** — the cross-runtime conformance suite
(``tests/test_runtime_conformance.py``) proves it.

Three modes, one code path:

* ``"process"`` — real worker processes; callbacks and payload data
  must be picklable (module-level functions, plain data / numpy arrays).
* ``"thread"`` — a thread pool in the coordinator's process: no
  pickling, real concurrency for callbacks that release the GIL.
* ``"inline"`` — a degenerate executor running each task at submission
  time in the calling thread: fully deterministic (serial-equivalent
  event order), the mode of choice for tests and debugging.

Placement: every worker slot is one single-worker executor.  With no
task map any free slot takes the lowest ready task id.  With a task map
(including :func:`repro.sched.plan_placement`'s ``PlannedMap`` and
:func:`repro.sched.locality_map`) shards are folded onto
``min(n_workers, shard_count)`` *shard groups*, one slot per group, so
placement decisions — locality, planned co-residency — hold on the real
pool exactly as they do on the simulated clusters.

Fault tolerance composes: a :class:`~repro.faults.FaultPlan`'s transient
task faults are injected into real attempts (the attempt runs, its
outputs are discarded) and retried under the controller's
:class:`~repro.faults.RetryPolicy` with the same accounting — counters,
events, wasted-time categories — as the simulated controllers.  Rank
deaths and link faults describe simulated hardware and are rejected
loudly.  When a ``retry_policy`` is *explicitly* installed, real
callback exceptions are retried under the same budget (the local
backend's genuinely-transient-failure story); without one they
propagate, exactly like every other backend.

Observability: wall-clock lifecycle events through the standard
:mod:`repro.obs` vocabulary (timestamps are real seconds since run
start), so timelines, critical paths, trace diffs and metrics sketches
work unchanged.  Feed a run's events to
:meth:`repro.sched.ProfiledEstimate.from_events` to close the loop from
measured reality back into the planner — see
:func:`repro.runtimes.calibrate.profile_cost_model` and the
``local_calibration`` perf benchmark.
"""

from __future__ import annotations

import atexit
import heapq
import os
import pickle
import queue
import signal
import threading
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from typing import Sequence

from repro.core.callbacks import CallbackRegistry, validate_outputs
from repro.core.errors import ControllerError
from repro.core.graph import TaskGraph
from repro.core.ids import EXTERNAL, TaskId
from repro.core.payload import Payload
from repro.core.taskmap import TaskMap
from repro.faults import DEFAULT_RETRY_POLICY, FaultPlan, RetryPolicy
from repro.obs.events import (
    MESSAGE_DELIVERED,
    MESSAGE_SENT,
    TASK_RUNNING,
    Event,
    EventSink,
)
from repro.obs.live import LiveConfig
from repro.runtimes.controller import Controller
from repro.runtimes.dataflow import DataflowKernel, RunScaffold
from repro.runtimes.result import RunResult

#: Execution modes, cheapest-to-debug first.
MODES = ("inline", "thread", "process")

#: Default stall deadline (real seconds without a single completion):
#: generous for real work, small enough that a deadlocked pool fails the
#: suite instead of hanging it.
DEFAULT_IDLE_TIMEOUT = 120.0


def _is_transport_error(exc: BaseException) -> bool:
    """True for process-pool transport failures (vs. callback bugs).

    The stdlib reports an unpicklable work item as whatever the pickler
    raised — ``PicklingError``, but also ``AttributeError: Can't pickle
    local object ...`` or ``TypeError: cannot pickle ...`` — and a died
    worker as ``BrokenProcessPool``.
    """
    if isinstance(exc, (BrokenProcessPool, pickle.PicklingError)):
        return True
    return (
        isinstance(exc, (AttributeError, TypeError))
        and "pickle" in str(exc).lower()
    )


def default_workers() -> int:
    """Worker count when none is given: the host's cores, capped.

    The cap keeps accidental ``repro.run(runtime="local")`` calls from
    forking a 128-process pool on a big box; pass ``n_procs``/
    ``n_workers`` explicitly to use more.
    """
    return max(1, min(8, os.cpu_count() or 1))


class _Terminated(SystemExit):
    """SIGTERM surfaced as an exception, so the run's cleanup path —
    each sink's ``abort``, pool teardown — runs before the process dies
    (exit code stays 128+SIGTERM)."""


@contextmanager
def _terminate_to_exception(sinks: Sequence[EventSink]):
    """Route SIGTERM through the run's ``except BaseException`` cleanup.

    Without this, ``kill <pid>`` ends the interpreter without unwinding
    the coordinator: the flight recorder's ring — the post-mortem of an
    aborted run — dies with it.  Installed only when something wants
    that cleanup (an attached sink overrides ``abort``), only in the
    main thread (signal handlers cannot be set elsewhere), and always
    restored, so nested/background runs keep the surrounding handler.
    """
    if (
        all(type(sink).abort is EventSink.abort for sink in sinks)
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _raise(signum, frame):
        raise _Terminated(128 + signum)

    try:
        previous = signal.signal(signal.SIGTERM, _raise)
    except (ValueError, OSError):  # platform without SIGTERM delivery
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


#: Worker-side callback table of the run in flight (process mode).
_TABLE: dict = {}


def _install(blob) -> None:
    """Install this worker's callback table (``None`` clears it)."""
    global _TABLE
    _TABLE = pickle.loads(blob) if blob is not None else {}


def _pool_run(fn, payloads, cid, tid, n_outputs, fail):
    """One attempt, executed inside a worker (module-level: picklable).

    Returns ``(outputs, elapsed_seconds, faulted)``.  An injected fault
    (``fail=True``) still runs the callback — real compute is consumed
    and discarded, mirroring the simulated controllers' "transient
    failure after full compute time" semantics — but returns no outputs.
    Output-arity validation happens worker-side so a misbehaving
    callback is reported from the attempt that ran it.  ``fn=None``
    (process mode) means the callback installed under ``cid``.
    """
    if fn is None:
        fn = _TABLE[cid]
    t0 = time.perf_counter()
    outputs = validate_outputs(cid, fn(payloads, tid), tid, n_outputs)
    elapsed = time.perf_counter() - t0
    if fail:
        return None, elapsed, True
    return outputs, elapsed, False


def _pickle_table(table: dict) -> bytes:
    """The run's callbacks as one blob, pickled on the calling thread
    (together, so state the callbacks share is pickled once)."""
    try:
        return pickle.dumps(table, pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        bad = []
        for cid, fn in table.items():
            try:
                pickle.dumps(fn, pickle.HIGHEST_PROTOCOL)
            except Exception:
                bad.append(cid)
        raise ControllerError(
            f"callback(s) {bad} cannot be sent to the worker processes: "
            f"{exc}; in process mode callbacks must be picklable (see "
            f"docs/runtimes.md)"
        ) from exc


#: Idle process-mode slot executors, one set per slot count.  A run
#: borrows a set exclusively (pop) and hands it back only on success, so
#: a broken, timed-out or terminated run never leaves workers here.
_SPARE: dict[int, list] = {}
_SPARE_LOCK = threading.Lock()
# A forked child must not adopt executors whose manager threads it lacks.
os.register_at_fork(after_in_child=_SPARE.clear)

#: Seconds a worker process gets to exit at shutdown before it is
#: killed.  All futures are resolved by then, so a healthy worker
#: exits in milliseconds; only a wedged fork ever runs the clock.
POOL_JOIN_TIMEOUT = 10.0


def _reap(pools: list, timeout: float) -> None:
    """Shut process executors down with a bounded join, then ``kill()``.

    ``shutdown(wait=True)`` joins the workers; one wedged at fork time
    (forked while a parent thread held a lock — rare, but real on busy
    fork-start-method hosts) would hang the run, and a leaked non-daemon
    worker hangs the interpreter at exit.
    """
    procs, managers = [], []
    for pool in pools:
        procs.extend((getattr(pool, "_processes", None) or {}).values())
        managers.append(getattr(pool, "_executor_manager_thread", None))
        pool.shutdown(wait=False, cancel_futures=True)
    deadline = time.monotonic() + timeout
    # Each executor's manager thread reaps its worker too, and the loser
    # of that race sees the dead worker as alive until the winner has
    # booked its exit code: let the managers finish first.
    for thread in managers:
        if thread is not None:
            thread.join(max(0.0, deadline - time.monotonic()))
    for p in procs:
        p.join(max(0.0, deadline - time.monotonic()))
    stuck = [p for p in procs if p.is_alive()]
    if not stuck:
        return
    for p in stuck:
        p.kill()
    # A killed worker breaks its executor, whose manager thread then
    # reaps it: the same race as above, so wait for the managers again.
    for thread in managers:
        if thread is not None:
            thread.join(1.0)
    for p in stuck:
        p.join(1.0)


def shutdown_workers() -> None:
    """Reap the worker processes kept warm between process-mode runs."""
    with _SPARE_LOCK:
        idle = [pool for pools in _SPARE.values() for pool in pools]
        _SPARE.clear()
    _reap(idle, POOL_JOIN_TIMEOUT)


atexit.register(shutdown_workers)


class _InlineExecutor:
    """Degenerate executor: run the work at submission time, inline.

    Gives the pool coordinator a third backend with zero concurrency —
    submission order *is* completion order, so an inline run executes
    tasks in exactly the serial reference's ready order.
    """

    def submit(self, fn, /, *args) -> Future:
        f: Future = Future()
        _run_item(f, fn, args)
        return f

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        pass


def _run_item(f: Future, fn, args) -> None:
    """Run one submission into its future (unless it was cancelled)."""
    if f.set_running_or_notify_cancel():
        try:
            f.set_result(fn(*args))
        except BaseException as exc:  # delivered via future, like a pool
            f.set_exception(exc)


class _SlotThread:
    """A one-worker thread executor whose worker is a daemon.

    ``ThreadPoolExecutor`` workers are joined at interpreter exit, so a
    callback still running when a run is terminated would hold the
    process until it returned; a daemon slot is abandoned instead.
    """

    def __init__(self) -> None:
        self._work: queue.SimpleQueue = queue.SimpleQueue()
        self._thread = threading.Thread(
            target=self._loop, name="repro-slot", daemon=True
        )
        self._thread.start()

    def _loop(self) -> None:
        while (item := self._work.get()) is not None:
            _run_item(*item)
            item = None  # no payload outlives its task

    def submit(self, fn, /, *args) -> Future:
        f: Future = Future()
        self._work.put((f, fn, args))
        return f

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        try:
            while cancel_futures:
                self._work.get_nowait()[0].cancel()
        except queue.Empty:
            pass
        self._work.put(None)
        if wait:
            self._thread.join()


class LocalPoolController(Controller):
    """Execute the dataflow on real cores (registry name ``"local"``).

    Args:
        n_workers: concurrent worker slots (pool size).  ``None`` picks
            :func:`default_workers`.  With a task map installed, shards
            fold onto ``min(n_workers, shard_count)`` pinned groups.
        mode: ``"process"`` (default), ``"thread"``, or ``"inline"``.
        sinks: observability sinks receiving wall-clock lifecycle events;
            with one that overrides ``abort`` attached, SIGTERM unwinds
            the run through it before the process exits.
        telemetry: ``True`` turns on the latency sketches, same contract
            as every other controller (off by default).
        live: in-flight status snapshots for ``python -m repro.obs
            watch`` / ``serve`` (see :mod:`repro.obs.live`): a status
            directory, a dict or a :class:`~repro.obs.live.LiveConfig`
            attaches one more sink, which also hears each task start
            as it is submitted.  ``True`` takes the directory from
            ``$REPRO_LIVE_DIR`` (which also arms unset runs) and is an
            error without it.  Off by default, and free when off.
        fault_plan: transient task faults to inject into real attempts.
            Rank deaths and link faults describe simulated hardware and
            raise :class:`~repro.core.errors.ControllerError`.
        retry_policy: backoff/budget for fault recovery.  Explicitly
            passing one also opts real callback exceptions into the
            retry budget (genuine transient-failure tolerance); without
            one, exceptions propagate.
        balancer: accepted for config portability but inapplicable — the
            pool's dispatch is already dynamic; the run degrades
            gracefully and narrates it with a ``plan.fallback`` event.
        compile: accepted for config portability; a compiled run plan
            records *simulated* timing, so real runs fall back (with a
            ``plan.fallback`` event) and execute normally.
        idle_timeout: real seconds without a single completion before
            the run is declared stuck and fails fast (a deadlocked or
            died-silently pool surfaces as a
            :class:`~repro.core.errors.ControllerError`, not a hang).
    """

    def __init__(
        self,
        n_workers: int | None = None,
        mode: str = "process",
        *,
        sinks: Sequence[EventSink] = (),
        telemetry: bool | None = None,
        live: "LiveConfig | bool | str | dict | None" = None,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        balancer=None,
        compile: bool = False,
        idle_timeout: float | None = DEFAULT_IDLE_TIMEOUT,
    ) -> None:
        super().__init__(sinks, telemetry)
        if mode not in MODES:
            raise ControllerError(
                f"unknown local mode {mode!r}; valid modes: {', '.join(MODES)}"
            )
        if n_workers is None:
            n_workers = 1 if mode == "inline" else default_workers()
        if n_workers < 1:
            raise ControllerError(
                f"n_workers must be >= 1, got {n_workers}"
            )
        if fault_plan is not None and (
            fault_plan.rank_deaths or fault_plan.link_faults
        ):
            raise ControllerError(
                "the local backend runs on real processes: rank deaths and "
                "link faults are simulated-hardware constructs; keep the "
                "plan's transient task faults or pick a simulated runtime "
                "such as 'mpi'"
            )
        self.n_workers = n_workers
        self.mode = mode
        # Coerced per run by attach_live (the env var can arm it even
        # when unset here); keep the raw value for config portability.
        self.live = live
        self._fault_plan = fault_plan
        self._retry_exceptions = retry_policy is not None
        self._policy = retry_policy if retry_policy is not None else DEFAULT_RETRY_POLICY
        self.balancer = balancer
        self.compile = bool(compile)
        self.idle_timeout = idle_timeout
        #: Retry count of the last run, same accounting as the simulated
        #: controllers' ``.retries``.
        self.retries = 0

    # ------------------------------------------------------------------ #
    # Pools and placement
    # ------------------------------------------------------------------ #

    def _group_of(self, tm: TaskMap | None, n_groups: int):
        """``tid -> shard group``: folded task-map shard, or None (any)."""
        if tm is None:
            return None
        if tm.shard_count <= n_groups:
            return tm.shard
        return lambda tid: tm.shard(tid) % n_groups

    def _make_pools(self, n_slots: int) -> list:
        """One single-worker executor per slot: per-slot FIFO order and
        real co-residency (the pool analogue of a rank), and in process
        mode an addressable worker to install the callback table on."""
        if self.mode == "inline":
            return [_InlineExecutor() for _ in range(n_slots)]
        if self.mode == "thread":
            return [_SlotThread() for _ in range(n_slots)]
        return [ProcessPoolExecutor(max_workers=1) for _ in range(n_slots)]

    def _broadcast(self, pools: list, blob) -> None:
        """Set (``None``: clear) every worker's table and wait for all."""
        for fut in [pool.submit(_install, blob) for pool in pools]:
            fut.result(timeout=self.idle_timeout)

    def _install_table(self, pools: list, reused: bool, blob: bytes) -> None:
        """Install the run's callbacks on every slot's worker, once.

        Reused workers were forked before this run: if one cannot
        unpickle the table (callback module imported, or ``sys.path``
        changed, since the fork) or died idle, fork fresh slots — in
        place, so the caller's cleanup sees them — and install once
        more.  A failure on fresh slots is the real error.
        """
        if reused:
            try:
                return self._broadcast(pools, blob)
            except Exception:
                _reap(pools, 1.0)
                pools[:] = self._make_pools(len(pools))
        try:
            self._broadcast(pools, blob)
        except Exception as exc:
            raise ControllerError(
                f"worker processes could not install the run's callbacks: "
                f"{exc!r}"
            ) from exc

    def _release(self, pools: list) -> None:
        """Hand a successful run's workers, tables cleared, to the spare
        (at most one set per slot count; a concurrent run's set wins)."""
        try:
            self._broadcast(pools, None)
        except Exception:
            spare = None
        else:
            with _SPARE_LOCK:
                spare = _SPARE.setdefault(len(pools), pools)
        if spare is not pools:
            _reap(pools, POOL_JOIN_TIMEOUT)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def _execute(
        self,
        graph: TaskGraph,
        registry: CallbackRegistry,
        inputs: dict[TaskId, list[Payload]],
    ) -> RunResult:
        tm = self._task_map
        pinned = tm is not None
        n_groups = min(self.n_workers, tm.shard_count) if pinned else 1
        n_slots = n_groups if pinned else self.n_workers
        group_of = self._group_of(tm, n_groups)
        blob = None
        if self.mode == "process":
            # Before anything is armed or any worker is touched: an
            # unpicklable callback is the caller's error, raised on the
            # caller's thread.
            blob = _pickle_table(
                {cid: registry.resolve(cid) for cid in graph.callbacks()}
            )
        run = RunScaffold(self, graph, n_slots)
        # Process workers are borrowed from the warm spare.
        pools = None
        if blob is not None:
            with _SPARE_LOCK:
                pools = _SPARE.pop(n_slots, None)
        reused = pools is not None
        if not reused:
            pools = self._make_pools(n_slots)

        try:
            with _terminate_to_exception(run.hub.sinks):
                if blob is not None:
                    self._install_table(pools, reused, blob)
                self._run_pools(
                    graph, registry, inputs, pools, n_slots, group_of, run
                )
        except BaseException as exc:
            run.abort(exc)
            self._shutdown_pools(pools, graceful=False)
            raise
        if blob is not None:
            self._release(pools)
        else:
            self._shutdown_pools(pools, graceful=True)
        run.result.metrics = run.metrics.snapshot()
        if run.live is not None:
            run.live.close("finished")
        return run.result

    def _shutdown_pools(self, pools: list, *, graceful: bool) -> None:
        """Tear the executors down without ever hanging the coordinator.

        Process pools get :func:`_reap`'s bounded join.  Thread and
        inline pools keep the plain waiting shutdown (on the success
        path every future is already resolved); after a failure a
        thread slot still running a callback is left to finish alone,
        and being a daemon it never holds the process at exit.
        """
        if self.mode == "process":
            _reap(pools, POOL_JOIN_TIMEOUT if graceful else 1.0)
            return
        for pool in pools:
            pool.shutdown(wait=graceful, cancel_futures=not graceful)

    def _run_pools(
        self,
        graph: TaskGraph,
        registry: CallbackRegistry,
        inputs: dict[TaskId, list[Payload]],
        pools: list,
        n_slots: int,
        group_of,
        run: RunScaffold,
    ) -> None:
        self.retries = 0
        inline = self.mode == "inline"
        process = self.mode == "process"
        obs, ctx, live, result = run.obs, run.ctx, run.live, run.result
        t_task, t_queue, t_msg = run.t_task, run.t_queue, run.t_msg
        # Event rank of a task before it has a slot: its pinned group, or
        # -1 when any free slot may take it.
        where = group_of if group_of is not None else (lambda tid: -1)

        t0 = time.perf_counter()
        now = lambda: time.perf_counter() - t0

        if live is not None:
            live.clock = now

        ready: list[TaskId] = []  # heap of dispatchable task ids
        delayed: list[tuple[float, TaskId]] = []  # retry backoff heap
        # fut -> (seq, tid, worker slot, the attempt's inputs)
        pending: dict[Future, tuple[int, TaskId, int, list]] = {}
        retry_inputs: dict[TaskId, list[Payload]] = {}  # of failed attempts
        free = list(range(n_slots))  # free worker slots, lowest-first
        heapq.heapify(free)
        seq = 0
        executed = 0
        queue_peak = 0
        busy = [0.0] * n_slots  # per-slot compute seconds (utilization)
        compute_total = 0.0
        wasted_total = 0.0

        kernel = DataflowKernel(
            graph, run, ControllerError, self._fault_plan, self._policy
        )
        total, tasks = kernel.total, kernel.tables.tasks

        def enqueue(tid: TaskId) -> None:
            """A ready task, or a retry whose backoff ran out, becomes
            dispatchable."""
            nonlocal queue_peak
            heapq.heappush(ready, tid)
            depth = len(ready) + len(pending)
            if depth > queue_peak:
                queue_peak = depth
            kernel.enqueued(tid, where(tid), now())

        def deliver(
            worker: int, tid: TaskId, dst: TaskId, slot: int, payload: Payload
        ) -> None:
            """Coordinator handoff: the payload is available to the
            consumer the instant it is routed."""
            if obs:
                tnow = now()
                edge = dict(
                    proc=worker, dst_proc=where(dst), task=tid, dst_task=dst,
                    nbytes=payload.nbytes, label=f"t{tid}->t{dst}",
                )
                obs.emit(Event(MESSAGE_SENT, tnow, **edge))
                obs.emit(Event(MESSAGE_DELIVERED, tnow, **edge))
            if kernel.deposit(dst, slot, payload, tid):
                enqueue(dst)
            if t_msg is not None:
                t_msg.observe(0.0)
            result.stats.messages += 1
            result.stats.bytes_sent += payload.nbytes

        def submit(tid: TaskId, slot: int) -> None:
            nonlocal seq
            # The kernel releases the inputs at the first dispatch; a
            # failed attempt holds on to them, so its retry runs from
            # the same payloads (tasks are idempotent by contract).
            task_inputs = retry_inputs.pop(tid, None)
            if task_inputs is None:
                task_inputs = kernel.inputs(tid, release=True)
            task = tasks[tid]
            fail = kernel.take_fault(tid)
            if live is not None:
                # A slot is handed a task only when it is free, so
                # submission is the real start.  Straight to the live
                # sink: the other sinks never see task.running.
                live.emit(Event(TASK_RUNNING, now(), proc=slot, task=tid))
            # Process workers hold the run's table: ship the id, not fn.
            fn = None if process else registry.resolve(task.callback)
            fut = pools[slot].submit(
                _pool_run, fn, task_inputs, task.callback, tid,
                task.n_outputs, fail,
            )
            pending[fut] = (seq, tid, slot, task_inputs)
            seq += 1

        # -------------------------------------------------------------- #

        run.begin(self._task_map)
        if self.compile:
            run.plan_fallback("backend")
        if self.balancer is not None:
            run.plan_fallback(
                "balancer",
                "balancer inapplicable: pool dispatch is already dynamic",
            )
        for tid, slot, payload in kernel.tables.external(inputs):
            if kernel.deposit(tid, slot, payload, EXTERNAL):
                enqueue(tid)

        last_progress = time.perf_counter()
        while executed < total:
            tnow = now()
            while delayed and delayed[0][0] <= tnow:
                enqueue(heapq.heappop(delayed)[1])
            # Dispatch: lowest ready id to the lowest free slot (pinned
            # tasks wait for their own group's slot).  Inline mode has no
            # real slots — work runs in the calling thread at submission —
            # so a full drain executes exactly the serial reference's
            # sorted ready batches.
            if inline:
                while ready:
                    tid = heapq.heappop(ready)
                    submit(tid, group_of(tid) if group_of is not None else 0)
            elif group_of is not None:
                if ready and free:
                    held: list[TaskId] = []
                    free_set = {s for s in free}
                    while ready and free_set:
                        tid = heapq.heappop(ready)
                        g = group_of(tid)
                        if g in free_set:
                            free_set.discard(g)
                            submit(tid, g)
                        else:
                            held.append(tid)
                    free[:] = sorted(free_set)
                    heapq.heapify(free)
                    for tid in held:
                        heapq.heappush(ready, tid)
            else:
                while ready and free:
                    submit(heapq.heappop(ready), heapq.heappop(free))
            if not pending:
                if delayed:
                    pause = max(0.0, delayed[0][0] - now())
                    if pause:
                        time.sleep(min(pause, 0.05))
                    continue
                raise kernel.stalled()
            timeout = self.idle_timeout
            if delayed:
                pause = max(0.0, delayed[0][0] - now())
                timeout = pause if timeout is None else min(timeout, pause)
            done, _ = wait(pending, timeout=timeout, return_when=FIRST_COMPLETED)
            if not done:
                if delayed and delayed[0][0] <= now():
                    continue  # woke up to release a due retry
                idle = time.perf_counter() - last_progress
                if self.idle_timeout is not None and idle >= self.idle_timeout:
                    raise ControllerError(
                        f"local pool made no progress for {idle:.1f}s "
                        f"({len(pending)} attempt(s) in flight, mode="
                        f"{self.mode}); deadlocked or killed workers?"
                    )
                continue
            last_progress = time.perf_counter()
            # Completion order is scheduler-dependent; processing in
            # submission order keeps the coordinator's own bookkeeping
            # (routing, readiness) deterministic for a given arrival set.
            for fut in sorted(done, key=lambda f: pending[f][0]):
                _, tid, slot, task_inputs = pending.pop(fut)
                # One completion frees exactly one slot (pinned groups
                # never hold more than one attempt in flight; inline mode
                # never consumed one).
                if not inline:
                    heapq.heappush(free, slot)
                tc = now()
                exc = fut.exception()
                if exc is not None:
                    fatal = process and _is_transport_error(exc)
                    retryable = (
                        self._retry_exceptions
                        and not fatal
                        and not isinstance(exc, ControllerError)
                    )
                    if not retryable:
                        if fatal:
                            raise ControllerError(
                                f"worker pool broke while running task {tid}: "
                                f"{exc}; in process mode callbacks and "
                                f"payload data must be picklable (see "
                                f"docs/runtimes.md)"
                            ) from exc
                        raise exc
                    elapsed, kind = 0.0, "error"
                else:
                    outputs, elapsed, faulted = fut.result()
                    kind = "task" if faulted else None
                    run.m_task_seconds.observe(elapsed)
                    if t_task is not None:
                        t_task.observe(elapsed)
                        t_queue.observe(
                            max(0.0, tc - elapsed - kernel.enq_t[tid])
                        )
                start = max(0.0, tc - elapsed)
                busy[slot] += elapsed
                arrived = kernel.arrived.get(tid) if ctx else None
                if kind is not None:
                    # A failed attempt: its time is wasted, and the task
                    # re-enters the ready heap once its backoff ran out.
                    retry_inputs[tid] = task_inputs
                    wasted_total += elapsed
                    kernel.fail(tid, slot, start, kind)
                    if obs:
                        run.emit_attempt(
                            slot, tid, start, tc, elapsed, 0.0, "wasted",
                            " (failed attempt)", arrived,
                        )
                    delay = kernel.retry(tid, where(tid), tc)
                    heapq.heappush(delayed, (tc + delay, tid))
                    continue
                executed += 1
                compute_total += elapsed
                result.stats.add_callback(tasks[tid].callback, elapsed)
                if obs:
                    run.emit_attempt(
                        slot, tid, start, tc, elapsed, arrived=arrived
                    )
                kernel.route(tid, outputs, slot, deliver)

        makespan = now()
        result.stats.tasks_executed = executed
        result.stats.makespan = makespan
        result.stats.add("compute", compute_total)
        if wasted_total:
            result.stats.add("wasted", wasted_total)
        self.retries = kernel.retries
        run.finish(
            kernel.retries,
            [queue_peak],
            [b / makespan for b in busy] if makespan > 0 else [],
            self._task_map,
        )
        if self._fault_plan is not None or self._retry_exceptions:
            run.metrics.counter("faults_injected").inc(kernel.retries)
        run.metrics.gauge("pool_workers").set(float(self.n_workers))
