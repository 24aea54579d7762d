"""The virtual-time driver of the simulator-backed controllers.

A controller decides only where and when an idempotent task runs (the
paper's §III), and a schedule reads only each task's cost-model seconds
and each payload's ``nbytes``.  So a run takes two passes: the *callback
pass* (:func:`run_callbacks`) executes every callback once and yields
those two flat arrays; the *timing pass* simulates the run from them on a
discrete-event cluster (:mod:`repro.sim`), holding no payload.  Its
dataflow — slots, readiness, routing, attempt accounting — is a sized
:class:`~repro.runtimes.dataflow.DataflowKernel`, and what a run is
observed through is :class:`~repro.runtimes.dataflow.RunScaffold`.
:class:`SimController` answers the two questions the kernel leaves open,
*when* and *where*:

1. sizes *deposit* into the kernel (initial inputs at time zero,
   dataflow messages on delivery);
2. a task the kernel reports *ready* enters its proc's run queue
   (backends may interpose extra steps, e.g. Legion's launcher);
3. a free core *dispatches* it for overhead + the task's seconds (a
   retry, timeout or lineage replay charges them again);
4. on (virtual) completion the kernel *routes* its outputs and every
   dataflow edge is serialized / shipped / deserialized at the cost the
   backend's wire tuple gives.

The concrete backends (MPI, Charm++, Legion SPMD, Legion index-launch)
are data over this one driver: where a task runs is the per-run table
``_proc`` (indexable by task id), what an edge costs is the tuple
:meth:`SimController._wire`, and the stats categories are the class
attributes ``pre_category`` and ``comm_category``.  A backend's code is
what actually distinguishes it: launchers, barriers, rounds, chare
migration, the blocking send.  All scheduling decisions are
deterministic — FIFO queues, ``(time, seq)``-ordered events — so a given
(graph, inputs, backend, parameters) tuple always produces the same
results *and* the same virtual timings.
"""

from __future__ import annotations

import time
from array import array
from collections import deque
from typing import TYPE_CHECKING, NamedTuple, Sequence

from repro.core.callbacks import CallbackRegistry, validate_outputs
from repro.core.errors import ControllerError, FaultError, SimulationError
from repro.core.graph import TaskGraph
from repro.core.ids import EXTERNAL, TaskId
from repro.core.payload import Payload
from repro.core.tables import GraphTables
from repro.core.task import Task
from repro.core.taskmap import ModuloMap
from repro.faults.plan import FaultPlan
from repro.faults.policy import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.obs.events import (
    OVERHEAD,
    RANK_DEAD,
    SCHED_MIGRATED,
    TASK_MIGRATED,
    Event,
    EventSink,
)
from repro.obs.live import LiveConfig
from repro.runtimes import dataflow  # _task_label via the module: poisonable
from repro.runtimes.controller import Controller
from repro.runtimes.costs import DEFAULT_COSTS, CostModel, NullCost, RuntimeCosts
from repro.runtimes.dataflow import DataflowKernel, RunScaffold
from repro.runtimes.result import RunResult
from repro.sim.cluster import Cluster
from repro.sim.engine import Engine
from repro.sim.machine import SHAHEEN_II, MachineSpec

if TYPE_CHECKING:  # pragma: no cover - typing only (repro.sched imports us)
    from repro.sched.balance import Balancer
    from repro.sched.compile import CompiledPlan


class Callbacks(NamedTuple):
    """What the callback pass of one run hands its timing pass.

    By task id: ``returned``, the ``{channel: payload}`` a task returned
    to the caller (``None`` if none), and ``durations``, the cost model's
    seconds.  ``nbytes`` is the payload size in each flat input slot,
    ``overflow`` the size of each edge with no slot left (edge index ->
    nbytes), ``errors`` the exception of each task that raised.  A task
    downstream of a failed one never ran: its entries stay zero.
    """

    returned: Sequence
    durations: Sequence[float]
    nbytes: array
    overflow: dict
    errors: dict


def run_callbacks(
    tables: GraphTables,
    registry: CallbackRegistry,
    cost_model: CostModel,
    inputs: dict[TaskId, list[Payload]],
) -> Callbacks:
    """The callback pass: every task of ``tables.order()`` once.

    Each callback id is resolved once per run; an exact ``list`` of exact
    :class:`Payload` items of the task's arity passes inline, anything
    else goes through :func:`validate_outputs`.  A task's input slots are
    emptied as it runs.  Wall time is measured only for a cost model that
    reads it.  Never raises an :class:`Exception`: a task's first one —
    from its callback, the output check or the cost model — goes to
    ``errors`` and every task downstream of it is skipped; the timing
    pass raises it when that task dispatches.
    """
    tasks, slot_start, n_inputs = tables.tasks, tables.slot_start, tables.n_inputs
    n_outputs, edge_start, n_edges = tables.n_outputs, tables.edge_start, tables.n_edges
    edge_ch, edge_dst, edge_slot = tables.edge_ch, tables.edge_dst, tables.edge_slot
    n = tables.n
    slots: list = [None] * tables.n_slots
    nbytes = array("q", [0]) * tables.n_slots
    durations = tables.by_id(array("d", [0.0]) * n)
    returned = tables.by_id([None] * n)
    ext_start, ext_slot = tables.ext_start, tables.ext_slot
    for j, tid in enumerate(tables.sources):
        x = ext_start[j]
        for payload in inputs[tid]:
            s = ext_slot[x]
            slots[s] = payload
            nbytes[s] = payload.nbytes
            x += 1
    duration, wall = cost_model.duration, cost_model.needs_wall_time
    clock = time.perf_counter
    fns: dict = {}
    overflow: dict[int, int] = {}
    errors: dict[TaskId, Exception] = {}
    skip: set[TaskId] = set()  # downstream of a failed task
    for tid in tables.order():
        e = edge_start[tid]
        end = e + n_edges[tid]
        if skip and tid in skip:
            while e < end:
                skip.add(edge_dst[e])
                e += 1
            continue
        a = slot_start[tid]
        b = a + n_inputs[tid]
        ins = slots[a:b]
        slots[a:b] = [None] * (b - a)
        task = tasks[tid]
        cid = task.callback
        try:
            try:
                fn = fns[cid]
            except KeyError:  # first use this run (or unregistered: raises)
                fn = fns[cid] = registry.resolve(cid)
            if wall:
                t0 = clock()
                outs = fn(ins, tid)
                seconds = clock() - t0
            else:
                outs = fn(ins, tid)
                seconds = 0.0
            k = n_outputs[tid]
            if type(outs) is not list or len(outs) != k:
                outs = validate_outputs(cid, outs, tid, k)
            else:
                for p in outs:
                    if type(p) is not Payload:
                        outs = validate_outputs(cid, outs, tid, k)
                        break
            durations[tid] = duration(task, ins, seconds)
        except Exception as exc:
            errors[tid] = exc
            while e < end:
                skip.add(edge_dst[e])
                e += 1
            continue
        while e < end:
            p = outs[edge_ch[e]]
            if edge_dst[e] >= 0:
                s = edge_slot[e]
                if s >= 0:
                    slots[s] = p
                    nbytes[s] = p.nbytes
                else:
                    overflow[e] = p.nbytes
            else:
                r = returned[tid]
                if r is None:
                    r = returned[tid] = {}
                r[edge_ch[e]] = p
            e += 1
    return Callbacks(returned, durations, nbytes, overflow, errors)


class SimController(Controller):
    """Base class of the simulator-backed backends.

    Args:
        n_procs: number of simulated processes (ranks / PEs / shards).
        machine: hardware model; defaults to the Shaheen II-flavoured
            :data:`~repro.sim.machine.SHAHEEN_II`.
        cores_per_proc: compute servers per proc (the MPI controller's
            thread pool size; 1 means a proc is one core).
        cost_model: virtual compute-cost model; defaults to
            :class:`~repro.runtimes.costs.NullCost`.
        costs: runtime overhead constants.
        procs_per_node: how many procs share a node; defaults to
            ``cores_per_node // cores_per_proc``.
        fault_plan: full fault schedule (transient task faults, permanent
            rank deaths, link degradation/drops) — see
            :mod:`repro.faults`.  A transient fault makes an attempt fail
            after consuming its full compute time (the ``wasted`` stats
            category); the controller re-executes it — safe because
            tasks are idempotent by contract (the property the paper
            leans on).  A plan is consumed *per run*: each ``run()``
            materializes a fresh budget from the immutable plan, so
            running twice injects the same faults twice.
        retry_policy: reaction to failed attempts and dropped messages
            (backoff, attempt budget, timeout detection); defaults to
            :data:`~repro.faults.policy.DEFAULT_RETRY_POLICY` when a
            plan is installed.
        balancer: dynamic load-balancing strategy (see
            :mod:`repro.sched.balance`); ``None`` keeps the backend's
            default (static placement everywhere except Charm++, whose
            built-in periodic balancer stays on).
        sinks: observability sinks receiving the run's structured
            lifecycle events (see :mod:`repro.obs.events`); equivalent to
            calling :meth:`~repro.runtimes.controller.Controller.add_sink`.
            A kept trace is a :class:`~repro.obs.events.ListSink` (read
            it with :mod:`repro.obs.timeline`), a post-mortem ring a
            :class:`~repro.obs.telemetry.FlightRecorder`.
        telemetry: ``True`` feeds streaming quantile sketches — task
            compute, queue wait, message latency — into
            ``RunResult.metrics.sketches`` without retaining events (see
            :mod:`repro.obs.telemetry`).  Default off: clean runs
            allocate no telemetry objects and their metric snapshots /
            event streams are bit-identical.
        live: in-flight status snapshots (see :mod:`repro.obs.live`):
            a status directory, a dict or a
            :class:`~repro.obs.live.LiveConfig` attaches one more sink,
            whose fold a writer thread snapshots into
            ``live-<pid>.json`` on the virtual clock.  ``True`` takes
            the directory from ``$REPRO_LIVE_DIR`` (which also arms
            unset runs) and is an error without it.  Off by default,
            and free when off.
        compile: opt into the ahead-of-time run plan (see
            :mod:`repro.sched.compile`): static-placement backends lower
            the (graph, task map) into a cached
            :class:`~repro.sched.compile.CompiledPlan` — the placement
            table flattened once — reused across runs, machines and rank
            counts via the process-wide
            :data:`~repro.sched.compile.PLAN_CACHE`.  An unobserved run
            records its timing pass on the plan; a later unobserved run
            with the same :meth:`_timing_key` whose callback pass yields
            equal durations and input sizes returns that record instead
            of simulating.  Results are bit-identical to the interpreted
            path.  Runs
            that need dynamic behavior (``fault_plan=``, ``balancer=``,
            ``telemetry=``, or a dynamic-placement backend) fall back
            automatically, emitting a ``plan.fallback`` event when
            observed.
    """

    #: True on backends whose placement is a static task map (MPI, Legion
    #: SPMD): ``initialize`` defaults it to the paper's round-robin
    #: :class:`~repro.core.taskmap.ModuloMap`, and each run flattens it
    #: into ``_proc`` — or copies a compiled plan's table.
    #: The other backends (Charm++, Legion index-launch) keep it False,
    #: fill ``_proc`` themselves in :meth:`_prepare_run` and never take
    #: the compiled path.
    _compiled_placement = False

    #: Stats categories of the per-task pre-compute overhead and of edge
    #: de-/serialization.
    pre_category = "dispatch"
    comm_category = "serialize"

    def __init__(
        self,
        n_procs: int,
        machine: MachineSpec = SHAHEEN_II,
        cores_per_proc: int = 1,
        cost_model: CostModel | None = None,
        costs: RuntimeCosts = DEFAULT_COSTS,
        procs_per_node: int | None = None,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        balancer: "Balancer | None" = None,
        sinks: Sequence[EventSink] = (),
        telemetry: bool | None = None,
        live: "LiveConfig | bool | str | dict | None" = None,
        compile: bool = False,
    ) -> None:
        super().__init__(sinks, telemetry)
        # In-flight observability (repro.obs.live); coerced per run by
        # attach_live so $REPRO_LIVE_DIR can arm it too.  Virtual-time
        # runs feed the same sink with virtual timestamps.
        self.live = live
        if n_procs <= 0:
            raise ControllerError(f"n_procs must be positive, got {n_procs}")
        self.n_procs = n_procs
        self.machine = machine
        self.cores_per_proc = cores_per_proc
        self.cost_model = cost_model if cost_model is not None else NullCost()
        self.costs = costs
        self.procs_per_node = procs_per_node
        if fault_plan is not None:
            fault_plan.validate(n_procs)
            if retry_policy is None:
                retry_policy = DEFAULT_RETRY_POLICY
        self.fault_plan = fault_plan
        self.retry_policy = retry_policy
        self.balancer = balancer
        self.compile = compile
        # True when the balancer is the backend's own default (Charm++):
        # the backend then keeps its legacy counters/events and the
        # generic scheduler metrics stay out of clean-run snapshots.
        self._balancer_builtin = False
        #: failed attempts observed in the last run.
        self.retries = 0
        # Per-run state; created in _execute.
        self._engine: Engine
        self._cluster: Cluster
        self._result: RunResult
        self._graph_run: TaskGraph
        self._run: RunScaffold
        self._kernel: DataflowKernel
        self._ready: list[deque[TaskId]]
        self._busy: list[int]
        self._executed: int
        self._total: int
        self._finish_time: float

    # ------------------------------------------------------------------ #
    # Backend hooks
    # ------------------------------------------------------------------ #

    def _post_initialize(self) -> None:
        if not type(self)._compiled_placement:
            return
        if self._task_map is None:
            self._task_map = ModuloMap(self.n_procs, self._graph.size())
        if self._task_map.shard_count > self.n_procs:
            raise ControllerError(
                f"task map targets {self._task_map.shard_count} shards but "
                f"controller has {self.n_procs} ranks"
            )

    def _prepare_run(self) -> None:
        """Called once per run before initial inputs are deposited; a
        backend without a static task map fills ``_proc`` here."""

    def _wire(self) -> tuple[bool, float, float, float, float]:
        """What an edge costs, read once per run: ``(local_free, send,
        recv, recv_local, bandwidth)``.

        With ``local = sproc == dproc and local_free``, serializing a
        payload costs ``0.0`` if ``local``, else ``send + nbytes /
        bandwidth``; deserializing costs ``recv_local`` if ``local``,
        else ``recv + nbytes / bandwidth``.  The default: every edge is
        free.
        """
        return True, 0.0, 0.0, 0.0, float("inf")

    # ------------------------------------------------------------------ #
    # Compiled fast path (opt-in via compile=True)
    # ------------------------------------------------------------------ #

    def _compile_blocker(self) -> str | None:
        """Why this run cannot take the compiled fast path (or ``None``).

        The compiled plan assumes a fully static run: any source of
        dynamic behavior — fault injection, a balancer (including
        Charm++'s built-in one), telemetry instrumentation, or a backend
        whose placement is not a static task map — forces the
        interpreted path.
        """
        if not type(self)._compiled_placement or self._task_map is None:
            return "backend"
        if self.fault_plan is not None:
            return "faults"
        if self.balancer is not None:
            return "balancer"
        if self.telemetry:
            return "telemetry"
        return None

    def _resolve_compiled_plan(
        self, graph: TaskGraph
    ) -> tuple["CompiledPlan | None", str | None]:
        """The run's compiled plan (cached or freshly lowered), or the
        fallback reason."""
        reason = self._compile_blocker()
        if reason is not None:
            return None, reason
        from repro.sched.compile import (
            PLAN_CACHE,
            compile_plan,
            run_plan_key,
        )

        key = run_plan_key(graph, self._task_map)
        plan = PLAN_CACHE.get(key)
        self.plan_cache_hit = plan is not None
        if plan is None:
            plan = compile_plan(graph, self._task_map)
            PLAN_CACHE.put(key, plan)
        return plan, None

    def _timing_key(self) -> tuple:
        """What a static run's timing reads besides its plan and the
        per-task guards: a recorded timing serves equal keys only."""
        return (
            type(self), self.n_procs, self.cores_per_proc,
            self.procs_per_node, self.machine, self.costs, self.retry_policy,
            getattr(self._task_map, "plan_seconds", None),
        )

    def _on_ready(self, tid: TaskId) -> None:
        """A task's inputs are complete; default: enqueue on its proc."""
        self._enqueue(self._proc[tid], tid)

    def _on_task_done(self, proc: int, tid: TaskId) -> None:
        """Called after a task completed and its outputs were routed."""

    def _pre_compute_overhead(
        self, proc: int, task: Task, sizes: Sequence[int]
    ) -> float:
        """Per-task overhead charged on the core before compute;
        ``sizes`` are the task's input sizes in slot order."""
        return self.costs.dispatch_overhead

    # ------------------------------------------------------------------ #
    # Execution skeleton
    # ------------------------------------------------------------------ #

    def _execute(
        self,
        graph: TaskGraph,
        registry: CallbackRegistry,
        inputs: dict[TaskId, list[Payload]],
    ) -> RunResult:
        # On a live-armed run the sink's clock is left unset, so "now"
        # is the freshest event's virtual timestamp — the only
        # meaningful clock in a simulation.
        run = self._run = RunScaffold(self, graph, self.n_procs)
        # A planned map (repro.sched.plan) narrates its provenance.
        run.begin(self._task_map)
        cplan = key = None
        if self.compile:
            cplan, fallback = self._resolve_compiled_plan(graph)
            if cplan is None:
                # Narrated only when compilation was asked for, so clean
                # streams keep their exact shape.
                run.plan_fallback(fallback)
        try:
            calls = run_callbacks(graph.tables(), registry, self.cost_model, inputs)
        except BaseException as exc:
            run.abort(exc)
            raise
        if (
            cplan is not None
            and run.obs is None
            and not self.cost_model.needs_wall_time
        ):
            # Unobserved and static: the plan's record under this key, if
            # its arrays equal this run's, is the run's timing.
            from repro.sched.compile import replay_timing

            key = self._timing_key()
            result = replay_timing(cplan, key, calls)
            if result is not None:
                self.retries = 0
                return result
        self._engine = Engine()
        self._metrics = run.metrics
        self._t_task = run.t_task
        self._t_queue = run.t_queue
        self._obs = run.obs
        self._ctx = run.ctx
        self._m_task_seconds = run.m_task_seconds
        self._queue_peak = [0] * self.n_procs
        plan = self.fault_plan
        self._cluster = Cluster(
            self._engine,
            self.machine,
            self.n_procs,
            self.cores_per_proc,
            procs_per_node=self.procs_per_node,
            obs=run.hub,
            link_faults=plan.link_table() if plan is not None else None,
            retry=self.retry_policy,
            latency_sketch=run.t_msg,
        )
        self._result = run.result
        # Per-run hot-path caches: the wire tuple is constant for a run,
        # and binding the stats dicts once turns each accounting call
        # into a plain ``dict[k] += v``.
        (
            self._local_free, self._send_fixed, self._recv_fixed,
            self._recv_local, self._bandwidth,
        ) = self._wire()
        self._cat_time = self._result.stats.category_time
        self._cb_time = self._result.stats.callback_time
        self._graph_run = graph
        #: the callback pass's arrays, read by every attempt.
        self._durations = calls.durations
        self._sizes = calls.nbytes
        self._returned = calls.returned
        self._errors = calls.errors
        kernel = self._kernel = DataflowKernel(
            graph, run, SimulationError, plan, self.retry_policy,
            calls.nbytes, calls.overflow,
        )
        # Bound once per run: the kernel's state under the names the
        # backends and balancers read, its hot methods as plain attributes.
        self._done = kernel.done
        self._fault_budget = kernel.budget
        self._kernel_deposit = kernel.deposit
        self._timeout_raw = (
            self.retry_policy.task_timeout * self.machine.core_speed
            if self.retry_policy is not None
            else float("inf")
        )
        self.retries = 0
        # Rank-death recovery state.  All empty/None on the clean path,
        # so the hot-path guards are single truthiness tests.
        self._dead_procs: set[int] = set()
        self._survivors: list[int] = []
        self._replaying: set[TaskId] = set()
        self._replay_targets: dict[TaskId, set[TaskId]] = {}
        track_deaths = plan is not None and plan.has_rank_deaths
        self._inflight: dict[TaskId, tuple] | None = {} if track_deaths else None
        self._initial_deposited = False
        self._tasks_replayed = 0
        self._tasks_migrated = 0
        self._first_fault_time: float | None = None
        self._ready = [deque() for _ in range(self.n_procs)]
        self._busy = [0] * self.n_procs
        self._executed = 0
        self._total = kernel.total
        self._finish_time = 0.0
        self._lb_migrations = 0

        self._prepare_run()
        if cplan is not None:
            self._proc = cplan.proc.copy()
        elif type(self)._compiled_placement:
            # Placement is static for the whole run (recovery re-pins
            # single entries), so it is resolved once, not per message.
            tables = kernel.tables
            self._proc = tables.by_id(list(map(self._task_map.shard, tables.ids)))
        bal = self.balancer
        if bal is not None:
            bal.install(self)
        # Bound once per run: the pump loop pays one identity test when no
        # balancer (or a hook-less one) is installed.
        self._idle_hook = bal.on_idle if bal is not None else None
        if plan is not None:
            for death in plan.rank_deaths:
                self._engine.call_at(death.at, self._rank_death, death.proc)
        if inputs:
            # One batched time-zero event instead of one per source
            # task: the deposits run in the same (ascending) order, so
            # every downstream event keeps its relative (time, seq)
            # position.
            self._engine.call_at(0.0, self._deposit_initial)
        if self._idle_hook is not None:
            # Scheduled after the initial deposits: procs the task map
            # left without any work would otherwise never be pumped, so
            # an idle-stealing balancer would never see them.
            self._engine.call_at(0.0, self._probe_idle)
        try:
            self._engine.run()
            if len(self._done) != self._total:
                raise kernel.stalled()
        except BaseException as exc:
            run.abort(exc)
            raise
        finally:
            self.retries = kernel.retries
        stats = self._result.stats
        stats.makespan = self._finish_time
        stats.tasks_executed = self._executed
        stats.messages = self._cluster.messages_sent
        stats.bytes_sent = self._cluster.bytes_sent
        self._result.metrics = self._snapshot_metrics()
        if key is not None and not self.retries:
            from repro.sched.compile import record_timing

            record_timing(cplan, key, calls, self._result)
        if run.live is not None:
            # After the metric snapshot, so the terminal status file
            # carries the finalized counters/gauges.
            run.live.close("finished")
        return self._result

    def _snapshot_metrics(self):
        """Finalize counters/gauges and freeze the registry."""
        makespan = self._finish_time
        self._run.finish(
            self.retries,
            self._queue_peak,
            [
                self._cluster.core_busy_time(p) / (makespan * self.cores_per_proc)
                for p in range(self.n_procs)
            ]
            if makespan > 0
            else [],
            self._task_map,
        )
        m = self._metrics
        bal = self.balancer
        if bal is not None and not self._balancer_builtin:
            m.counter("lb_rounds").inc(bal.rounds())
            m.counter("tasks_stolen").inc(bal.stolen())
            m.counter("tasks_migrated_lb").inc(self._lb_migrations)
        if self.fault_plan is not None:
            # Fault/recovery metrics exist only when a plan is installed,
            # so clean runs keep their exact metric set (and goldens).
            # Every failed attempt and every rank death is one fault.
            m.counter("faults_injected").inc(
                self.retries + len(self._dead_procs)
            )
            m.counter("rank_deaths").inc(len(self._dead_procs))
            m.counter("tasks_replayed").inc(self._tasks_replayed)
            m.counter("tasks_migrated").inc(self._tasks_migrated)
            m.counter("messages_dropped").inc(self._cluster.messages_dropped)
            m.counter("messages_retransmitted").inc(
                self._cluster.messages_retransmitted
            )
            first = self._first_fault_time
            drop = self._cluster.first_drop_time
            if drop is not None and (first is None or drop < first):
                first = drop
            if first is not None:
                m.gauge("recovery_tail_seconds").set(
                    max(0.0, makespan - first)
                )
        return m.snapshot()

    # ------------------------------------------------------------------ #
    # Input deposit
    # ------------------------------------------------------------------ #

    def _deposit_initial(self) -> None:
        # Flag first: a task rebuilt after a later rank death must know
        # whether its external inputs were already delivered (and lost)
        # or are still on their way in this very batch.
        self._initial_deposited = True
        deposit, on_ready, sizes = self._kernel_deposit, self._on_ready, self._sizes
        tables = self._kernel.tables
        for j, tid in enumerate(tables.sources):
            for slot in tables.ext_slot[tables.ext_start[j]:tables.ext_start[j + 1]]:
                if deposit(tid, slot, sizes[slot], EXTERNAL):
                    on_ready(tid)

    def _deposit(self, tid: TaskId, slot: int, nbytes: int, producer: TaskId) -> None:
        if self._kernel_deposit(tid, slot, nbytes, producer):
            self._on_ready(tid)

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #

    def _enqueue(self, proc: int, tid: TaskId) -> None:
        if self._dead_procs and proc in self._dead_procs:
            return  # stale enqueue onto a dead rank; recovery re-placed it
        self._kernel.enqueued(tid, proc, self._engine._now)
        ready = self._ready[proc]
        ready.append(tid)
        if len(ready) > self._queue_peak[proc]:
            self._queue_peak[proc] = len(ready)
        self._pump(proc)

    def _pump(self, proc: int) -> None:
        while self._busy[proc] < self.cores_per_proc and self._ready[proc]:
            tid = self._ready[proc].popleft()
            self._start_task(proc, tid)
        hook = self._idle_hook
        if (
            hook is not None
            and not self._ready[proc]
            and self._busy[proc] < self.cores_per_proc
        ):
            # The proc drained its queue with cores to spare: give the
            # balancer (work stealing) a chance to find it more work.
            hook(self, proc)

    def _probe_idle(self) -> None:
        """Pump every proc once so the balancer's idle hook sees procs
        that start the run with an empty queue."""
        for p in range(self.n_procs):
            self._pump(p)

    def _migrate_queued(self, tid: TaskId, src: int, dst: int) -> None:
        """Move a queued (not yet started) task to another proc.

        The caller (a :class:`~repro.sched.balance.Balancer`) already
        removed ``tid`` from ``src``'s ready queue.  The buffered input
        payloads travel as one message and the task re-enters the run
        queue at the destination on arrival.  Backends with richer
        migration semantics (Charm++'s chare migration) override this.
        """
        self._kernel.dequeued(tid)
        self._proc[tid] = dst
        self._lb_migrations += 1
        # (A retry waits with its inputs already released: nothing moves.)
        nbytes = sum(s for s in self._kernel.inputs(tid) if s is not None)
        obs = self._obs
        if obs is not None:
            obs.emit(
                Event(
                    SCHED_MIGRATED,
                    self._engine._now,
                    proc=src,
                    dst_proc=dst,
                    task=tid,
                    nbytes=nbytes,
                    label=dataflow._task_label(tid, f" -> p{dst}"),
                )
            )
        self._cluster.send(
            src,
            dst,
            nbytes,
            self._arrive_balanced,
            dst,
            tid,
            label=dataflow._task_label(tid, " balance") if obs else "",
            src_task=tid,
        )

    def _arrive_balanced(self, dst: int, tid: TaskId) -> None:
        if self._dead_procs and dst in self._dead_procs:
            # The destination died while the task was in flight; the
            # death recovery already re-placed and rebuilt it.
            return
        self._enqueue(dst, tid)

    def _start_task(self, proc: int, tid: TaskId) -> None:
        kernel = self._kernel
        self._busy[proc] += 1
        if self._t_queue is not None:
            self._t_queue.observe(
                max(0.0, self._engine._now - kernel.enq_t[tid])
            )
        errors = self._errors
        if errors and tid in errors:
            # Where the callback pass's error surfaces: the run dies at
            # the failing task's dispatch, as if its callback ran here.
            raise errors[tid]
        task = kernel.tables.tasks[tid]
        # Inputs are released at the *first* dispatch, failed or not; a
        # retry is charged from the callback pass's arrays again (tasks
        # are idempotent by contract).
        sizes = kernel.inputs(tid, release=True)
        if kernel.attempts and tid in kernel.attempts:
            a = kernel.tables.slot_start[tid]
            sizes = self._sizes[a:a + len(sizes)]
        compute = self._durations[tid]
        overhead = self._pre_compute_overhead(proc, task, sizes)
        cat_time = self._cat_time
        self._m_task_seconds.observe(compute)
        if self._t_task is not None:
            self._t_task.observe(compute)
        kind = None
        if self._fault_budget and kernel.take_fault(tid):
            # Transient failure: the attempt consumes its full time but
            # its outputs are discarded; the task retries (idempotence).
            kind, suffix = "task", " (failed attempt)"
        elif overhead + compute > self._timeout_raw:
            # Timeout detection: the attempt is aborted at the policy's
            # per-task deadline and handled as a fault.  A task whose
            # compute always exceeds the timeout burns its whole attempt
            # budget and raises FaultError in _attempt_failed.
            kind, suffix = "timeout", " (timed out)"
        if kind is not None:
            if kind == "timeout":
                compute, overhead = self._timeout_raw, 0.0
            cat_time["wasted"] += overhead + compute
            start, end = self._cluster.compute(
                proc, overhead + compute, self._attempt_failed, proc, tid
            )
            if self._first_fault_time is None:
                self._first_fault_time = start
            if self._inflight is not None:
                self._inflight[tid] = (proc, start, end, compute, overhead, None)
            kernel.fail(tid, proc, start, kind)
            if self._obs is not None:
                self._emit_task(proc, tid, start, end, overhead, suffix)
            return
        cat_time[self.pre_category] += overhead
        cat_time["compute"] += compute
        self._cb_time[task.callback] += compute
        start, end = self._cluster.compute(
            proc, overhead + compute, self._task_done, proc, tid
        )
        if self._inflight is not None:
            self._inflight[tid] = (
                proc, start, end, compute, overhead, task.callback
            )
        if self._obs is not None:
            self._emit_task(proc, tid, start, end, overhead)

    def _emit_task(
        self,
        proc: int,
        tid: TaskId,
        start: float,
        end: float,
        overhead: float,
        suffix: str = "",
    ) -> None:
        """Emit one attempt's event triple (observed runs only).

        ``start``/``end`` are the core occupancy returned by the cluster
        (already scaled by ``core_speed``); the raw ``overhead`` is
        rescaled the same way so the compute interval excludes it.
        """
        ovh = overhead / self.machine.core_speed
        cstart = min(start + ovh, end)
        # Every attempt starts with a *complete* input multiset (a
        # rebuilt task is fully re-fed before it re-enters a queue), so
        # the parents stamped here are exactly the producers that fed
        # this attempt — the causal edge set of the span.
        self._run.emit_attempt(
            proc, tid, cstart, end, end - cstart, ovh,
            "wasted" if suffix else self.pre_category, suffix,
            self._kernel.arrived.get(tid) if self._ctx else None,
        )

    def _attempt_failed(self, proc: int, tid: TaskId) -> None:
        if self._dead_procs and proc in self._dead_procs:
            return  # the rank died under the attempt; recovery re-placed it
        self._busy[proc] -= 1
        if self._inflight is not None:
            self._inflight.pop(tid, None)
        self._pump(proc)
        target = self._target_proc(tid)
        delay = self._kernel.retry(tid, target, self._engine._now)
        self._engine.call_after(delay, self._enqueue, target, tid)

    def _task_done(self, proc: int, tid: TaskId) -> None:
        if self._dead_procs and proc in self._dead_procs:
            return  # the attempt's rank died; recovery replays the task
        self._busy[proc] -= 1
        self._executed += 1
        replay = False
        if self._replaying and tid in self._replaying:
            self._replaying.discard(tid)
            replay = True
        if self._inflight is not None:
            self._inflight.pop(tid, None)
        now = self._engine._now
        if now > self._finish_time:
            self._finish_time = now
        # A lineage replay re-feeds only the consumers that lost this
        # producer's payloads: everyone else already received them (or
        # has them in flight).  Each edge comes back through _send.
        self._kernel.route(
            tid, self._returned[tid], proc, self._send,
            self._replay_targets.pop(tid, None) if self._replay_targets else None,
        )
        self._pump(proc)
        if not replay:
            # Round/barrier bookkeeping already saw the first completion;
            # a lineage replay must not decrement it twice.
            self._on_task_done(proc, tid)

    # ------------------------------------------------------------------ #
    # Output routing
    # ------------------------------------------------------------------ #

    def _send(
        self, sproc: int, producer: TaskId, dst: TaskId, slot: int, nbytes: int
    ) -> None:
        dproc = self._proc[dst]
        if sproc == dproc and self._local_free:
            ser = 0.0
        else:
            ser = self._send_fixed + nbytes / self._bandwidth
        if ser > 0.0:
            self._cat_time[self.comm_category] += ser
            # Serialization occupies a sender core before injection.
            start, end = self._cluster.compute(
                sproc, ser, self._inject, sproc, dproc, producer, dst, slot,
                nbytes,
            )
            obs = self._obs
            if obs is not None:
                # Positional (proc, task, dst_proc, dst_task, dur,
                # category, nbytes, label): once per remote edge.
                obs.emit(
                    Event(
                        OVERHEAD, end, sproc, producer, -1, dst,
                        end - start, self.comm_category, 0,
                        f"ser t{producer}->t{dst}",
                    )
                )
        else:
            self._inject(sproc, dproc, producer, dst, slot, nbytes)

    def _inject(
        self,
        sproc: int,
        dproc: int,
        producer: TaskId,
        dst: TaskId,
        slot: int,
        nbytes: int,
    ) -> None:
        # No explicit label: Cluster derives "t{producer}->t{dst}" lazily
        # from src_task/dst_task, and only when a sink is attached.
        self._cluster.send(
            sproc,
            dproc,
            nbytes,
            self._receive,
            sproc,
            dproc,
            producer,
            dst,
            slot,
            nbytes,
            src_task=producer,
            dst_task=dst,
        )

    def _receive(
        self,
        sproc: int,
        dproc: int,
        producer: TaskId,
        dst: TaskId,
        slot: int,
        nbytes: int,
    ) -> None:
        if self._dead_procs and dproc in self._dead_procs:
            return  # delivered to a dead rank; the payload is lost
        if sproc == dproc and self._local_free:
            deser = self._recv_local
        else:
            deser = self._recv_fixed + nbytes / self._bandwidth
        if deser > 0.0:
            self._cat_time[self.comm_category] += deser
            if self._inflight is None:
                start, end = self._cluster.compute(
                    dproc, deser, self._deposit, dst, slot, nbytes, producer
                )
            else:
                # Rank deaths are planned: the deposit at the end of the
                # deserialization must re-check that the proc is alive.
                start, end = self._cluster.compute(
                    dproc, deser, self._deposit_recv, dproc, dst, slot,
                    nbytes, producer,
                )
            obs = self._obs
            if obs is not None:
                obs.emit(
                    Event(
                        OVERHEAD,
                        end,
                        proc=dproc,
                        task=dst,
                        dur=end - start,
                        category=self.comm_category,
                        label=f"deser t{producer}->t{dst}",
                    )
                )
        elif self._kernel_deposit(dst, slot, nbytes, producer):
            self._on_ready(dst)

    def _deposit_recv(
        self, dproc: int, dst: TaskId, slot: int, nbytes: int, producer: TaskId
    ) -> None:
        """Post-deserialization deposit that tolerates a mid-flight death."""
        if dproc in self._dead_procs:
            return
        self._deposit(dst, slot, nbytes, producer)

    # ------------------------------------------------------------------ #
    # Rank-death recovery
    # ------------------------------------------------------------------ #

    def _target_proc(self, tid: TaskId) -> int:
        """``tid``'s proc, but never a dead rank."""
        proc = self._proc[tid]
        if self._dead_procs and proc in self._dead_procs:
            proc = self._survivor_for(tid)
        return proc

    def _survivor_for(self, tid: TaskId) -> int:
        """Deterministic surviving rank for a re-placed task."""
        survivors = self._survivors
        return survivors[tid % len(survivors)]

    def _on_recover(self, tid: TaskId) -> None:
        """Backend hook: purge stale scheduling state of a recovered task."""

    def _on_replay(self, tid: TaskId) -> None:
        """Backend hook: a completed task is about to re-execute."""

    def _replace_task(self, tid: TaskId, new_proc: int) -> None:
        """Move a task off a dead rank onto ``new_proc``."""
        self._proc[tid] = new_proc
        self._tasks_migrated += 1
        if self._obs is not None:
            self._obs.emit(
                Event(
                    TASK_MIGRATED,
                    self._engine._now,
                    proc=new_proc,
                    task=tid,
                    label=dataflow._task_label(tid, f" -> p{new_proc}"),
                )
            )

    def _rank_death(self, proc: int) -> None:
        """Kill rank ``proc`` permanently and recover everything it owned."""
        if proc in self._dead_procs:
            return
        now = self._engine._now
        self._dead_procs.add(proc)
        self._survivors = [
            p for p in range(self.n_procs) if p not in self._dead_procs
        ]
        if not self._survivors:
            raise FaultError("every rank is dead; nothing left to recover on")
        if self._first_fault_time is None:
            self._first_fault_time = now
        if self._obs is not None:
            self._obs.emit(
                Event(
                    RANK_DEAD,
                    now,
                    proc=proc,
                    category="rank",
                    label=f"rank {proc} died",
                )
            )
        # Attempts running on the dead rank die with it: reverse their
        # pre-charged accounting and bill the fraction actually burned
        # before the death as waste.
        if self._inflight:
            for tid in sorted(self._inflight):
                iproc, start, end, compute, overhead, cb = self._inflight[tid]
                if iproc != proc:
                    continue
                del self._inflight[tid]
                raw = compute + overhead
                span = end - start
                frac = (
                    max(0.0, min(1.0, (now - start) / span))
                    if span > 0.0
                    else 1.0
                )
                if cb is None:
                    # Failed/timed-out attempt: already billed as waste in
                    # full; keep only the burned fraction.
                    self._cat_time["wasted"] += raw * (frac - 1.0)
                else:
                    self._cat_time[self.pre_category] -= overhead
                    self._cat_time["compute"] -= compute
                    self._cb_time[cb] -= compute
                    self._cat_time["wasted"] += raw * frac
        # The rank's run queue is gone with it; recover every unfinished
        # task it owned (materialized or not) onto the survivors.
        self._ready[proc].clear()
        lost = [
            tid
            for tid in self._graph_run.task_ids()
            if tid not in self._done and self._proc[tid] == proc
        ]
        for tid in lost:
            self._recover_task(tid)

    def _recover_task(self, tid: TaskId) -> None:
        """Re-place an unfinished task from a dead rank and rebuild it."""
        self._replace_task(tid, self._survivor_for(tid))
        if self._inflight is not None:
            self._inflight.pop(tid, None)
        self._on_recover(tid)
        self._rebuild_task(tid)

    def _rebuild_task(self, tid: TaskId) -> None:
        """Fresh physical task plus the lineage replay that refills it.

        Whatever inputs were buffered on the dead rank are lost; producers
        that already completed are replayed: they occupy a core for their
        recorded time again and re-send their outputs' sizes, without
        running their callbacks again (idempotence).  Producers still
        pending will feed the rebuilt task through the normal routing
        path when they finish.  A producer *already marked replaying* (a
        second failure can arrive while an earlier recovery is in flight)
        must have this consumer merged into its replay-target set, or its
        replayed outputs would route only to the first failure's victims.
        """
        task = self._kernel.reset(tid)
        base = self._kernel.tables.slot_start[tid]
        for producer in dict.fromkeys(task.incoming):
            if producer == EXTERNAL:
                if self._initial_deposited:
                    for slot in task.external_inputs():
                        slot += base
                        self._deposit(tid, slot, self._sizes[slot], EXTERNAL)
            elif producer in self._done or producer in self._replaying:
                self._require_replay(producer, tid)
        if task.n_inputs == 0:
            self._on_ready(tid)

    def _require_replay(self, producer: TaskId, consumer: TaskId) -> None:
        """Replay ``producer`` so that ``consumer`` gets its payloads back."""
        targets = self._replay_targets.get(producer)
        if targets is None:
            self._replay_targets[producer] = {consumer}
        else:
            targets.add(consumer)
        self._mark_replay(producer)

    def _mark_replay(self, tid: TaskId) -> None:
        """Schedule a completed task for re-execution (lineage replay)."""
        if tid in self._replaying:
            return
        self._replaying.add(tid)
        self._tasks_replayed += 1
        if self._proc[tid] in self._dead_procs:
            self._replace_task(tid, self._survivor_for(tid))
        self._on_replay(tid)
        self._rebuild_task(tid)
