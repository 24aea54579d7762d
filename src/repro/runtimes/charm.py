"""Charm++ runtime controller (paper Section IV-B).

Model highlights, matching the paper's description:

* **Chare array.**  Every task is a chare in one array; no explicit task
  map is needed.  Initial placement is the runtime's round-robin over
  processing elements (PEs), ``chare -> PE = id % n_procs``.
* **Remote procedure calls.**  Dataflow edges are entry-method
  invocations: every delivery pays an RPC overhead at the receiver,
  remote ones on top of de-/serialization; intra-PE messages avoid
  serialization ("the Charm++ serialization functionality will avoid
  unnecessary de-/serializations when possible").
* **Periodic load balancing.**  Every ``costs.charm_lb_period`` virtual
  seconds the runtime measures per-PE queue backlogs and migrates
  *queued, not-yet-started* chares from overloaded to underloaded PEs,
  paying a per-chare migration cost plus the network transfer of the
  chare's buffered inputs.  This is what lets Charm++ overtake static MPI
  placement on imbalanced workloads at scale (paper Figs. 6 and 9).

The balancing *strategy* is the generic
:class:`~repro.sched.balance.PeriodicGreedyBalancer` (installed by
default; pass ``balancer=`` to substitute any other strategy, or
:class:`~repro.sched.balance.NullBalancer` to disable).  The migration
*mechanics* — per-chare migration cost, buffered-state transfer, unpack
overhead — stay here, as the backend's ``_migrate_queued`` hook.
"""

from __future__ import annotations

from repro.core.ids import TaskId
from repro.obs.events import MIGRATION, OVERHEAD, Event
from repro.sched.balance import PeriodicGreedyBalancer
from repro.runtimes.simbase import SimController


class CharmController(SimController):
    """Task-graph execution on the simulated Charm++ runtime.

    Accepts (and ignores) a task map for interface compatibility; chare
    placement is handled by the runtime model.

    Extra constructor knob: set ``costs.charm_lb_period <= 0`` to disable
    load balancing entirely (used by the ablation benchmark), or pass an
    explicit ``balancer=`` strategy.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.balancer is None:
            # The runtime's own periodic LB, reading its period/cost from
            # ``costs``; marked built-in so the legacy ``migrations`` /
            # ``lb_rounds`` counters keep their historical shape.
            self.balancer = PeriodicGreedyBalancer()
            self._balancer_builtin = True

    def _prepare_run(self) -> None:
        # Chare array placement: chare t starts on PE t % n_procs.
        tables = self._kernel.tables
        self._proc = tables.by_id([tid % self.n_procs for tid in tables.ids])
        self._migrations = 0

    def _replace_task(self, tid: TaskId, new_proc: int) -> None:
        # Death recovery is a runtime-driven chare migration: bill the
        # same per-chare cost the load balancer pays.
        super()._replace_task(tid, new_proc)
        self._migrations += 1
        self._stats.add("migrate", self.costs.charm_migration_cost)

    def _wire(self) -> tuple[bool, float, float, float, float]:
        # Every delivery is an entry-method invocation: the receiver pays
        # the RPC overhead, intra-PE included, and de-serializes only
        # what crossed PEs.
        c = self.costs
        return (
            True, c.message_overhead, c.charm_rpc_overhead,
            c.charm_rpc_overhead, c.serialize_bandwidth,
        )

    # ------------------------------------------------------------------ #
    # Chare migration (the balancer's backend hook)
    # ------------------------------------------------------------------ #

    def _migrate_queued(self, tid: TaskId, src: int, dst: int) -> None:
        """Move a queued chare (inputs already buffered) to another PE,
        paying the per-chare migration cost."""
        self._migrations += 1
        self._stats.add("migrate", self.costs.charm_migration_cost)
        self._ship_queued(tid, src, dst, MIGRATION, self._arrive_migrated)

    def _migration_labels(self, tid: TaskId, dst: int) -> tuple[str, str]:
        label = f"migrate t{tid}"
        return label, label

    def _arrive_migrated(self, dst: int, tid: TaskId) -> None:
        if self._dead_procs and dst in self._dead_procs:
            # The destination PE died while the chare was in flight; the
            # death recovery already re-placed and rebuilt it.
            return
        if self._obs:
            self._obs.emit(
                Event(
                    OVERHEAD,
                    self._engine.now + self.costs.charm_migration_cost,
                    proc=dst,
                    task=tid,
                    dur=self.costs.charm_migration_cost,
                    category="migrate",
                    label=f"unpack t{tid}",
                )
            )
        self._engine.call_after(
            self.costs.charm_migration_cost, self._enqueue, dst, tid
        )

    def _finish(self):
        self._metrics.counter("migrations").inc(self._migrations)
        if self._balancer_builtin:
            # Historical counter shape; an explicit balancer= reports
            # through the generic scheduler counters instead.
            self._metrics.counter("lb_rounds").inc(self.lb_rounds)
        return super()._finish()

    @property
    def migrations(self) -> int:
        """Number of chare migrations in the last run."""
        return getattr(self, "_migrations", 0)

    @property
    def lb_rounds(self) -> int:
        """Number of load-balancing rounds in the last run."""
        bal = self.balancer
        return bal.rounds() if bal is not None else 0
