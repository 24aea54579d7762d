"""Legion SPMD runtime controller (paper Section IV-C).

The SPMD ("must epoch") strategy: one long-lived *shard task* per shard is
launched with a must-parallelism launcher; each shard task then issues its
assigned portion of the task graph with *single task launchers*, and
cross-shard dependencies synchronize through *phase barriers* — a
lightweight producer/consumer mechanism with no global synchronization.

Model highlights:

* The top-level task issues the must-epoch launch serially: shard ``s``
  becomes active only after ``(s+1) * legion_must_epoch_overhead``.
* Within a shard, every task pays a single-task-launcher overhead on the
  shard's *launcher* (a serial resource: the shard task issues launches
  one at a time) before it can be scheduled on a core.
* Every task pays region staging: a per-region-requirement constant for
  each input/output plus ``bytes / legion_staging_bandwidth`` for its
  input data.
* Cross-shard edges pay a phase-barrier overhead plus region copies on
  both sides; intra-shard edges are free beyond the staging above
  (dependence analysis, not data movement).

Like the MPI controller, the SPMD controller needs a task map to define
its shards ("conceptually, shards are similar to the task map the MPI
controller uses").
"""

from __future__ import annotations

from repro.core.ids import TaskId
from repro.obs.events import OVERHEAD, Event
from repro.runtimes.legion.base import LegionController
from repro.sim.resource import Resource


class LegionSPMDController(LegionController):
    """Task-graph execution on the simulated Legion runtime, SPMD style."""

    # Placement is a static task map, which the base class defaults,
    # checks and flattens per run (recovery re-shards a task by
    # re-pinning its entry, so later launches go through the surviving
    # shard's launcher and cores): compiled run plans apply, the
    # launcher pipeline stays dynamic.
    _compiled_placement = True

    # ------------------------------------------------------------------ #
    # Launch pipeline
    # ------------------------------------------------------------------ #

    def _prepare_run(self) -> None:
        # One serial launcher per shard: the shard task issues its single
        # task launchers one after the other.
        self._launchers = [
            Resource(self._engine) for _ in range(self.n_procs)
        ]
        # The must-epoch launch itself: the top-level task prepares the
        # shard tasks serially, so shard s starts with a skewed delay.
        per_shard = self.costs.legion_must_epoch_overhead
        for s in range(self.n_procs):
            start, end = self._launchers[s].submit((s + 1) * per_shard)
            if self._obs:
                self._obs.emit(
                    Event(
                        OVERHEAD,
                        end,
                        proc=s,
                        dur=end - start,
                        category="spawn",
                        label=f"must-epoch shard {s}",
                    )
                )
        self._stats.add("spawn", per_shard * self.n_procs)

    def _on_ready(self, tid: TaskId) -> None:
        proc = self._proc[tid]
        launch = self.costs.legion_single_launch_overhead
        self._stats.add("launch", launch)
        start, end = self._launchers[proc].submit(
            launch, self._enqueue, proc, tid
        )
        if self._obs:
            self._obs.emit(
                Event(
                    OVERHEAD,
                    end,
                    proc=proc,
                    task=tid,
                    dur=end - start,
                    category="launch",
                    label=f"launch t{tid}",
                )
            )

    def _wire(self) -> tuple[bool, float, float, float, float]:
        # Cross-shard edges pay a phase barrier on both sides on top of
        # the region copy.
        c = self.costs
        return (
            True, c.legion_barrier_overhead, c.legion_barrier_overhead, 0.0,
            c.legion_staging_bandwidth,
        )
