"""Pluggable scheduling and placement (shared by every controller).

The paper's central claim is that a task graph plus a task map fully
decouples *what* runs from *where* it runs — this package supplies the
"where" as first-class, swappable strategies instead of the two
hand-rolled maps the controllers shipped with:

* **Static placement** (:mod:`repro.sched.plan`): a HEFT-style
  list-scheduling planner (:func:`plan_placement`) that turns graph
  structure + cost estimates + the machine's network model into an
  optimized :class:`~repro.core.taskmap.TaskMap`, plus generic
  locality-aware (:func:`locality_map`) and over-decomposition-aware
  (:func:`overdecomposition_map`) map builders.  The resulting maps are
  plain task maps — usable anywhere one is accepted (MPI, BlockingMPI,
  Legion SPMD, and the :func:`repro.run` facade).
* **Cost estimation** (:mod:`repro.sched.estimate`): where the planner's
  per-task seconds and per-edge bytes come from — uniform guesses,
  per-callback weights, an existing :class:`~repro.runtimes.costs.CostModel`,
  or a profile measured from an observed baseline run
  (:meth:`ProfiledEstimate.from_events`).
* **Plan compilation** (:mod:`repro.sched.compile`): lowering a static
  ``(graph, task_map)`` into a :class:`CompiledPlan` — the placement
  table the simulated controllers copy instead of flattening the map,
  and the recorded timing later unobserved runs reuse instead of
  simulating — and the fingerprint-keyed LRU :class:`PlanCache`
  (:data:`PLAN_CACHE`) reusing planner and compiler artifacts across
  ``repro.run()`` calls.
* **Dynamic balancing** (:mod:`repro.sched.balance`): the
  :class:`Balancer` strategy interface generalizing Charm++'s periodic
  load balancer so *any* simulated controller can opt in via
  ``balancer=`` — :class:`PeriodicGreedyBalancer` (Charm++'s default,
  extracted), :class:`WorkStealingBalancer` (idle ranks steal queued
  work), and :class:`NullBalancer`.

Scheduling activity is observable through the ``sched.*`` events and the
``lb_rounds`` / ``tasks_stolen`` / ``placement_plan_seconds`` metrics —
all gated so the unobserved hot path stays allocation-free.

See ``docs/scheduling.md`` for the guide.
"""

from repro.sched.balance import (
    Balancer,
    NullBalancer,
    PeriodicGreedyBalancer,
    WorkStealingBalancer,
)
from repro.sched.compile import (
    PLAN_CACHE,
    CompiledPlan,
    PlanCache,
    compile_plan,
)
from repro.sched.estimate import (
    CallbackWeightEstimate,
    CostEstimate,
    ModelEstimate,
    ProfiledEstimate,
    UniformEstimate,
)
from repro.sched.plan import (
    PlannedMap,
    locality_map,
    overdecomposition_map,
    plan_placement,
)

__all__ = [
    "Balancer",
    "CallbackWeightEstimate",
    "CompiledPlan",
    "CostEstimate",
    "ModelEstimate",
    "NullBalancer",
    "PLAN_CACHE",
    "PeriodicGreedyBalancer",
    "PlanCache",
    "PlannedMap",
    "ProfiledEstimate",
    "UniformEstimate",
    "WorkStealingBalancer",
    "compile_plan",
    "locality_map",
    "overdecomposition_map",
    "plan_placement",
]
