"""Dynamic load balancing strategies for the simulated controllers.

Charm++'s periodic measurement-based load balancer used to live as a
private method of :class:`~repro.runtimes.charm.CharmController`.  It is
now a :class:`Balancer` strategy — :class:`PeriodicGreedyBalancer`
reproduces that behaviour bit-exactly — and *any* simulator-backed
controller can opt in via the ``balancer=`` constructor kwarg:

* :class:`PeriodicGreedyBalancer` — every ``period`` virtual seconds,
  level the per-proc ready-queue lengths by migrating queued (not yet
  started) tasks from overloaded to underloaded procs.
* :class:`WorkStealingBalancer` — event-driven: whenever a proc runs out
  of ready work while others have queued tasks, it steals one (the
  async-MPI controller's idle-rank recipe).
* :class:`NullBalancer` — explicit no-op (disable Charm++'s default).

A balancer moves *queued* tasks only: their inputs are buffered but the
callback has not dispatched, so migration is a state transfer, not a
re-execution.  The mechanics of one migration (placement update, buffered
payload transfer, re-enqueue, billing) stay a backend hook —
``SimController._migrate_queued`` — so Charm++ keeps its chare-migration
costs and legacy events while other backends use the generic path.

Balancers hold per-run state and are reset by ``install()`` at the start
of every run; one instance must not be shared by concurrently running
controllers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.errors import SimulationError
from repro.core.ids import TaskId
from repro.obs.events import OVERHEAD, SCHED_STEAL, Event

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from repro.runtimes.simbase import SimController

#: Balancing rounds with zero progress after which a run is declared
#: stalled (guards against a periodic tick ticking forever on a wedged
#: dataflow instead of surfacing the real error).
MAX_IDLE_LB_ROUNDS = 10_000


class Balancer:
    """Strategy interface for dynamic task balancing.

    Subclasses override :meth:`install` (schedule periodic work, reset
    per-run state) and optionally set :attr:`on_idle`.  Counters are
    read by the controller when it snapshots metrics.
    """

    #: Optional idle hook ``(controller, proc) -> None``, called when a
    #: proc has a free core and an empty ready queue.  ``None`` keeps the
    #: controller's pump loop free of any per-task balancer cost.
    on_idle = None

    def install(self, ctl: "SimController") -> None:
        """Bind to a run (called once per ``run()``, after the backend's
        ``_prepare_run``); resets all per-run state."""

    def rounds(self) -> int:
        """Balancing rounds performed in the last run."""
        return 0

    def stolen(self) -> int:
        """Tasks stolen by idle procs in the last run."""
        return 0

    def migrations(self) -> int:
        """Tasks migrated in the last run."""
        return 0


class NullBalancer(Balancer):
    """Explicitly do nothing (disables a backend's default balancer)."""


class PeriodicGreedyBalancer(Balancer):
    """Periodic queue-length leveling (Charm++'s measurement-based LB).

    Every ``period`` virtual seconds: bill one balancing round
    (``round_cost`` per proc), then level the ready-queue lengths — each
    proc's desired length is the global mean (the currently-longest
    queues keep the remainder, minimizing movement); surplus tasks are
    popped freshest-first into a pool and handed to the procs below
    their desired length.

    Args:
        period: virtual seconds between rounds; ``None`` reads the
            controller's ``costs.charm_lb_period``.  ``<= 0`` disables.
        round_cost: per-proc cost of one round (statistics exchange);
            ``None`` reads ``costs.charm_lb_cost``.
    """

    def __init__(
        self, period: float | None = None, round_cost: float | None = None
    ) -> None:
        self.period = period
        self.round_cost = round_cost
        self.lb_rounds = 0
        self._migrated = 0

    def install(self, ctl: "SimController") -> None:
        self._ctl = ctl
        self.lb_rounds = 0
        self._migrated = 0
        self._idle_rounds = 0
        self._executed_at_last = 0
        self._period = (
            self.period if self.period is not None
            else ctl.costs.charm_lb_period
        )
        self._round_cost = (
            self.round_cost if self.round_cost is not None
            else ctl.costs.charm_lb_cost
        )
        if self._period > 0:
            ctl._engine.call_after(self._period, self._tick)

    def rounds(self) -> int:
        return self.lb_rounds

    def migrations(self) -> int:
        return self._migrated

    def _tick(self) -> None:
        ctl = self._ctl
        if len(ctl._done) >= ctl._total:
            return  # run finished; stop rescheduling
        if ctl._executed == self._executed_at_last:
            self._idle_rounds += 1
            if self._idle_rounds > MAX_IDLE_LB_ROUNDS:
                raise SimulationError(
                    f"{type(ctl).__name__}: no progress across "
                    f"{MAX_IDLE_LB_ROUNDS} LB rounds — dataflow stalled"
                )
        else:
            self._idle_rounds = 0
        self._executed_at_last = ctl._executed
        self.lb_rounds += 1
        lb_cost = self._round_cost * ctl.n_procs
        ctl._stats.add("lb", lb_cost)
        if ctl._obs:
            # The LB strategy runs centrally; bill it as one overhead
            # interval starting at the measurement instant.
            ctl._obs.emit(
                Event(
                    OVERHEAD,
                    ctl._engine.now + lb_cost,
                    proc=0,
                    dur=lb_cost,
                    category="lb",
                    label=f"lb round {self.lb_rounds}",
                )
            )
        self._balance(ctl)
        ctl._engine.call_after(self._period, self._tick)

    def _balance(self, ctl: "SimController") -> None:
        """One-shot queue-length leveling of ready-but-queued tasks."""
        # Dead procs neither donate nor receive tasks.
        procs = ctl._survivors if ctl._dead_procs else range(ctl.n_procs)
        lengths = {p: len(ctl._ready[p]) for p in procs}
        total = sum(lengths.values())
        base, extra = divmod(total, len(lengths))
        # The `extra` currently-longest queues keep one more task.
        order = sorted(procs, key=lambda p: -lengths[p])
        desired = {p: base for p in procs}
        for p in order[:extra]:
            desired[p] = base + 1
        pool: list[tuple[TaskId, int]] = []
        for p in procs:
            while lengths[p] > desired[p]:
                tid = ctl._ready[p].pop()  # migrate the freshest arrival
                pool.append((tid, p))
                lengths[p] -= 1
        for p in procs:
            while lengths[p] < desired[p] and pool:
                tid, src = pool.pop()
                self._migrated += 1
                ctl._migrate_queued(tid, src, p)
                lengths[p] += 1
        assert not pool, "LB pool not drained"


class WorkStealingBalancer(Balancer):
    """Idle procs steal queued tasks from the longest backlog.

    Purely event-driven (no periodic cost): whenever a proc has a free
    core and an empty ready queue, it takes the freshest queued task
    from the proc with the longest queue — a nonempty queue implies all
    of that proc's cores are busy, so the stolen task would otherwise
    wait.  The transfer pays the normal migration path (buffered inputs
    cross the network, placement is re-pinned), so stealing tiny tasks
    across slow links can lose; the ablation benchmark quantifies it.

    Args:
        min_queue: only steal from queues at least this long (raise it
            to damp churn on nearly-balanced runs).
    """

    def __init__(self, min_queue: int = 1) -> None:
        if min_queue < 1:
            raise ValueError(f"min_queue must be >= 1, got {min_queue}")
        self.min_queue = min_queue
        self.tasks_stolen = 0

    def install(self, ctl: "SimController") -> None:
        self.tasks_stolen = 0

    def stolen(self) -> int:
        return self.tasks_stolen

    def migrations(self) -> int:
        return self.tasks_stolen

    def on_idle(self, ctl: "SimController", proc: int) -> None:
        if ctl._dead_procs and proc in ctl._dead_procs:
            return
        if len(ctl._done) >= ctl._total:
            return
        ready = ctl._ready
        victim, best_len = -1, self.min_queue - 1
        for p in range(ctl.n_procs):
            qlen = len(ready[p])
            if p != proc and qlen > best_len:
                victim, best_len = p, qlen
        if victim < 0:
            return
        tid = ready[victim].pop()  # freshest arrival, as the periodic LB
        self.tasks_stolen += 1
        if ctl._obs is not None:
            ctl._obs.emit(
                Event(
                    SCHED_STEAL,
                    ctl._engine._now,
                    proc=victim,
                    dst_proc=proc,
                    task=tid,
                    label=f"steal t{tid}",
                )
            )
        ctl._migrate_queued(tid, victim, proc)
