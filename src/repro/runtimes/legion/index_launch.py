"""Legion index-launch runtime controller (paper Section IV-C).

The index-launch strategy leans entirely on Legion's ability to spawn
large sets of tasks: the task graph is crawled into *rounds of
noninterfering tasks* (no dependencies within a round) and every round is
issued as one index launch, "mapping the necessary outputs of the previous
launch with the inputs of the next".  No task map and no phase barriers
are needed.

Model highlights — these produce the paper's Figs. 2 and 3:

* The *parent* (top-level) task prepares every subtask of an index launch
  serially: launching a round of ``N`` tasks costs
  ``N * legion_spawn_overhead`` on proc 0 before any of them may start
  ("the costs for preparing and scheduling tasks is borne by its parent
  task and roughly proportional to the number of subtasks used").
* Tasks of a round are distributed round-robin over the procs.
* A round is issued only after the previous round's tasks have completed
  (the launch maps the previous launch's outputs).
* Per-task region staging is identical to the SPMD controller.

With many tiny tasks the serial parent-side spawn dominates, which is why
the index-launch controller loses to SPMD at scale (Fig. 2) and why total
time *grows* with core count in Fig. 3 even though per-task compute
shrinks.
"""

from __future__ import annotations

from repro.core.ids import TaskId
from repro.obs.events import OVERHEAD, Event
from repro.runtimes.legion.base import LegionController
from repro.sim.resource import Resource


class LegionIndexController(LegionController):
    """Task-graph execution on the simulated Legion runtime, index style.

    Ignores any task map: placement is round-robin within each round.
    """

    def _prepare_run(self) -> None:
        tables = self._kernel.tables
        self._rounds = self._graph_run.rounds()
        self._round_of: dict[TaskId, int] = {}
        self._proc = tables.by_id([0] * len(tables.ids))
        for r, tids in enumerate(self._rounds):
            for pos, tid in enumerate(tids):
                self._round_of[tid] = r
                self._proc[tid] = pos % self.n_procs
        self._round_remaining = [len(tids) for tids in self._rounds]
        self._spawned: set[TaskId] = set()
        self._waiting_ready: set[TaskId] = set()
        # Tasks whose spawn completed, kept only when rank deaths are
        # planned: recovery must know whether a lost task still has its
        # launch pending or needs the parent to re-launch it.
        self._launch_done: set[TaskId] = set()
        self._current_round = -1
        # The parent task spawning subtasks is a serial resource on proc 0.
        self._parent = Resource(self._engine)
        self._open_round(0)

    def _on_recover(self, tid: TaskId) -> None:
        self._waiting_ready.discard(tid)
        if tid in self._launch_done:
            # The launched subtask died with its rank; the parent must
            # issue the index point again (index re-launch).
            self._launch_done.discard(tid)
            self._spawned.discard(tid)
            self._spawn(tid, f"respawn t{tid}")
        # else: the spawn is still queued at the parent and will land on
        # the new owner when it completes.

    def _on_replay(self, tid: TaskId) -> None:
        # A completed point re-executes: it must go through the parent's
        # launch path again before it can be scheduled.
        self._launch_done.discard(tid)
        self._spawned.discard(tid)
        self._spawn(tid, f"respawn t{tid}")

    def _spawn(self, tid: TaskId, label: str) -> None:
        """The parent prepares one subtask; it may run once that is done."""
        spawn = self.costs.legion_spawn_overhead
        self._stats.add("spawn", spawn)
        start, end = self._parent.submit(spawn, self._spawn_done, tid)
        if self._obs:
            self._obs.emit(
                Event(
                    OVERHEAD,
                    end,
                    proc=0,
                    task=tid,
                    dur=end - start,
                    category="spawn",
                    label=label,
                )
            )

    # ------------------------------------------------------------------ #
    # Round orchestration
    # ------------------------------------------------------------------ #

    def _open_round(self, r: int) -> None:
        if r >= len(self._rounds):
            return
        self._current_round = r
        for tid in self._rounds[r]:
            self._spawn(tid, f"spawn t{tid} (round {r})" if self._obs else "")

    def _spawn_done(self, tid: TaskId) -> None:
        self._spawned.add(tid)
        if self._inflight is not None:
            self._launch_done.add(tid)
        if tid in self._waiting_ready:
            self._waiting_ready.discard(tid)
            self._enqueue(self._proc[tid], tid)

    def _on_ready(self, tid: TaskId) -> None:
        if tid in self._spawned:
            self._spawned.discard(tid)
            self._enqueue(self._proc[tid], tid)
        else:
            self._waiting_ready.add(tid)

    def _on_task_done(self, proc: int, tid: TaskId) -> None:
        r = self._round_of[tid]
        self._round_remaining[r] -= 1
        if self._round_remaining[r] == 0 and r == self._current_round:
            self._open_round(r + 1)
