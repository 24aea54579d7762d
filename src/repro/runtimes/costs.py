"""Cost models: how much *virtual* time a task callback costs.

Controllers execute callbacks for real (so results are correct) but charge
simulated time for them, because the benchmarks measure virtual makespans
on clusters far larger than the host.  A :class:`CostModel` translates an
executed task into virtual seconds:

* :class:`NullCost` — zero compute time; only communication and runtime
  overheads shape the schedule.  Default for unit tests.
* :class:`MeasuredCost` — the callback's real wall time scaled by a
  constant.  Anchors virtual time to the host's actual speed.
* :class:`CallableCost` — an analytic model ``f(task, inputs) -> seconds``.
  The analysis packages provide calibrated analytic models so benchmarks
  can simulate 32k cores without executing 32k full-size callbacks.
* :class:`PerCallbackCost` — dispatch to a different model per callback id.

:class:`RuntimeCosts` gathers the per-runtime overhead constants (message
setup, serialization bandwidth, thread dispatch, Legion launch/staging,
Charm++ RPC/migration).  Defaults are loosely calibrated so the relative
behaviours reported in the paper emerge; every benchmark prints the
constants it used.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from typing import Callable, Mapping

from repro.core.payload import Payload
from repro.core.task import Task


class CostModel(ABC):
    """Maps an executed task to virtual compute seconds."""

    #: Whether :meth:`duration` reads ``wall_time``.  Controllers skip the
    #: per-task clock reads when False; unknown subclasses default to True.
    needs_wall_time: bool = True

    @abstractmethod
    def duration(
        self, task: Task, inputs: list[Payload], wall_time: float
    ) -> float:
        """Virtual seconds charged for executing ``task``.

        Args:
            task: the logical task.
            inputs: the payloads it consumed.
            wall_time: measured real execution time of the callback.
        """


class NullCost(CostModel):
    """Zero compute cost (ordering and communication only)."""

    needs_wall_time = False

    def duration(self, task: Task, inputs: list[Payload], wall_time: float) -> float:
        return 0.0


class MeasuredCost(CostModel):
    """Real wall time scaled by ``scale`` (default 1.0)."""

    def __init__(self, scale: float = 1.0) -> None:
        if scale < 0:
            raise ValueError(f"scale must be non-negative, got {scale}")
        self.scale = scale

    def duration(self, task: Task, inputs: list[Payload], wall_time: float) -> float:
        return wall_time * self.scale


class CallableCost(CostModel):
    """Analytic model: ``fn(task, inputs)`` seconds, ignoring wall time."""

    needs_wall_time = False

    def __init__(self, fn: Callable[[Task, list[Payload]], float]) -> None:
        self._fn = fn

    def duration(self, task: Task, inputs: list[Payload], wall_time: float) -> float:
        return max(0.0, float(self._fn(task, inputs)))


class PerCallbackCost(CostModel):
    """Dispatch on the task's callback id.

    Args:
        models: callback id -> cost model (or constant seconds).
        default: model for callback ids not in ``models``.
    """

    def __init__(
        self,
        models: Mapping[int, CostModel | float],
        default: CostModel | float = 0.0,
    ) -> None:
        self._models = {
            cid: self._coerce(m) for cid, m in models.items()
        }
        self._default = self._coerce(default)
        self.needs_wall_time = self._default.needs_wall_time or any(
            m.needs_wall_time for m in self._models.values()
        )

    @staticmethod
    def _coerce(m: CostModel | float) -> CostModel:
        if isinstance(m, CostModel):
            return m
        const = float(m)
        return CallableCost(lambda task, inputs, c=const: c)

    def duration(self, task: Task, inputs: list[Payload], wall_time: float) -> float:
        model = self._models.get(task.callback, self._default)
        return model.duration(task, inputs, wall_time)


@dataclass(frozen=True)
class RuntimeCosts:
    """Per-runtime overhead constants (all times in seconds, rates in B/s).

    Shared fields:

    Attributes:
        dispatch_overhead: CPU time to pick up and start one ready task
            (MPI: thread hand-off; Charm++: entry-method scheduling).
        message_overhead: CPU time to post/process one message.
        serialize_bandwidth: bytes/second for de-/serializing payloads
            crossing process boundaries.

    MPI-specific:

    Attributes:
        mpi_in_memory: when True, intra-rank messages skip serialization
            entirely (the paper's in-memory message optimization).

    Charm++-specific:

    Attributes:
        charm_rpc_overhead: receiver-side cost of every entry-method
            invocation, intra-PE included; it replaces
            ``message_overhead`` on the receiving side (the sender of a
            remote message still pays that).
        charm_lb_period: virtual seconds between periodic load-balancing
            rounds (the paper's experiments use periodic LB).
        charm_lb_cost: per-PE cost of one LB round (statistics exchange).
        charm_migration_cost: fixed cost to migrate one chare.

    Legion-specific:

    Attributes:
        legion_spawn_overhead: parent-side cost to prepare and launch one
            subtask with an index launcher ("the costs for preparing and
            scheduling tasks is borne by its parent task and roughly
            proportional to the number of subtasks").
        legion_must_epoch_overhead: parent-side cost per shard task in a
            must-parallelism launch (much cheaper: one launch per shard,
            not per task).
        legion_single_launch_overhead: shard-side cost to issue one single
            task launcher (SPMD controller's per-task launch).
        legion_staging_per_region: cost to set up one region requirement
            (per input/output of a task).
        legion_staging_bandwidth: bytes/second for mapping payloads into
            physical region instances.
        legion_barrier_overhead: cost of one phase-barrier arrival/wait.
    """

    dispatch_overhead: float = 15e-6
    message_overhead: float = 2e-6
    serialize_bandwidth: float = 6.0e9

    mpi_in_memory: bool = True

    charm_rpc_overhead: float = 6e-6
    charm_lb_period: float = 0.25
    charm_lb_cost: float = 1e-4
    charm_migration_cost: float = 5e-5

    legion_spawn_overhead: float = 2.5e-4
    legion_must_epoch_overhead: float = 2e-5
    legion_single_launch_overhead: float = 8e-5
    legion_staging_per_region: float = 1.2e-5
    legion_staging_bandwidth: float = 2.0e10
    legion_barrier_overhead: float = 1e-5

    def with_(self, **kwargs) -> "RuntimeCosts":
        """Copy with some fields replaced."""
        return replace(self, **kwargs)


#: Default overhead constants used by tests and benchmarks.
DEFAULT_COSTS = RuntimeCosts()
