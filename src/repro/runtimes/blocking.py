"""Blocking bulk-synchronous MPI baseline.

The paper compares its asynchronous MPI controller against the original
hand-tuned implementation of Landge et al., which "used blocking
communication" — and attributes BabelFlow's win, especially at low core
counts, to asynchrony tolerating the workload's natural load imbalance.

:class:`BlockingMPIController` models that style: the dataflow executes in
bulk-synchronous *rounds* (levels of the task graph); no task of round
``r+1`` starts anywhere before every task of round ``r`` has completed
globally, mimicking the lockstep of a blocking send/recv schedule.  Task
placement, threading, and message costs are inherited from the
asynchronous :class:`~repro.runtimes.mpi.MPIController`, so the *only*
difference measured is blocking vs asynchronous progress.
"""

from __future__ import annotations

from repro.core.ids import TaskId
from repro.runtimes.mpi import MPIController


class BlockingMPIController(MPIController):
    """Round-synchronized variant of the MPI controller (baseline).

    Besides the global round barriers, sends are *blocking*: the sender's
    core is occupied for serialization plus the whole network transfer
    before it can pick up further work — no NIC offload, no overlap of
    communication with computation.
    """

    def _send(
        self, sproc: int, producer: TaskId, dst: TaskId, slot: int, nbytes: int
    ) -> None:
        dproc = self._proc[dst]
        if sproc == dproc and self._local_free:
            ser = 0.0
        else:
            ser = self._send_fixed + nbytes / self._bandwidth
        self._stats.add(self.comm_category, ser)
        self._cluster.send_blocking(
            sproc, dproc, nbytes, ser, self.comm_category,
            self._receive, sproc, dproc, producer, dst, slot, nbytes,
            src_task=producer, dst_task=dst,
        )

    def _finish(self):
        # The cluster owns the blocked wire seconds, retransmissions
        # included; a run that sent nothing has no such category.
        if self._cluster.messages_sent:
            self._stats.add("blocked_send", self._cluster.blocked_time)
        return super()._finish()

    def _prepare_run(self) -> None:
        super()._prepare_run()
        self._round_of: dict[TaskId, int] = {}
        rounds = self._graph_run.rounds()
        for r, tids in enumerate(rounds):
            for tid in tids:
                self._round_of[tid] = r
        self._round_remaining = [len(tids) for tids in rounds]
        self._barrier_round = 0
        self._held: list[list[TaskId]] = [[] for _ in rounds]

    def _on_ready(self, tid: TaskId) -> None:
        r = self._round_of[tid]
        if r <= self._barrier_round:
            self._enqueue(self._proc[tid], tid)
        else:
            self._held[r].append(tid)

    def _on_recover(self, tid: TaskId) -> None:
        # The rebuilt task will report ready again once its lineage
        # replays; a stale held entry would double-enqueue it at the
        # barrier release.
        held = self._held[self._round_of[tid]]
        if tid in held:
            held.remove(tid)

    def _on_task_done(self, proc: int, tid: TaskId) -> None:
        r = self._round_of[tid]
        self._round_remaining[r] -= 1
        if self._round_remaining[r] == 0 and r == self._barrier_round:
            self._advance_barrier()

    def _advance_barrier(self) -> None:
        # Open consecutive rounds; a round may already be complete when
        # it contains zero tasks (cannot happen with valid graphs, but
        # stay safe) or release tasks that were held back.
        while self._barrier_round + 1 < len(self._round_remaining):
            self._barrier_round += 1
            released = self._held[self._barrier_round]
            self._held[self._barrier_round] = []
            for tid in released:
                self._enqueue(self._proc[tid], tid)
            if self._round_remaining[self._barrier_round] != 0:
                break
