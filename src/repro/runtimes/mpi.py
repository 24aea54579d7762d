"""MPI runtime controller (paper Section IV-A).

Model highlights, matching the paper's description:

* **Static placement.**  A :class:`~repro.core.taskmap.TaskMap` assigns
  every task to a rank; each rank instantiates only its local subgraph.
  Not every rank needs tasks, and many tasks may share a rank —
  ``cores_per_proc`` is the per-rank thread pool ("the MPI controller uses
  the standard C++ thread API to manage a thread pool").
* **Asynchronous point-to-point messages.**  Sends never block; tasks are
  scheduled greedily in arrival order as soon as all inputs are present.
* **In-memory messages.**  Intra-rank edges skip de-/serialization and
  pass the object directly (toggle with ``costs.mpi_in_memory`` for the
  ablation study); inter-rank edges pay ``nbytes / serialize_bandwidth``
  on each side plus a per-message setup cost.
"""

from __future__ import annotations

from repro.runtimes.simbase import SimController


class MPIController(SimController):
    """Task-graph execution on the simulated MPI runtime.

    Requires a task map at :meth:`initialize`; when omitted, a
    :class:`~repro.core.taskmap.ModuloMap` over ``n_procs`` ranks is used
    (the paper's default round-robin allocation).
    """

    # Placement is a static task map, which the base class defaults,
    # checks and flattens per run (recovery re-pins entries of that
    # table): compiled run plans apply.
    _compiled_placement = True

    def _wire(self) -> tuple[bool, float, float, float, float]:
        c = self.costs
        return (
            c.mpi_in_memory, c.message_overhead, c.message_overhead, 0.0,
            c.serialize_bandwidth,
        )
