"""Result of one controller run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.core.ids import TaskId
from repro.core.payload import Payload
from repro.obs.metrics import MetricsSnapshot
from repro.sim.trace import Stats
from repro.util.frozen import FrozenDict


@dataclass(frozen=True)
class RunResult:
    """Everything a controller run produced: a read-only value.

    Every backend returns it frozen — :func:`freeze_outputs` over the
    returned payloads, a :meth:`~repro.sim.trace.Stats.frozen` ``Stats``
    and a read-only metrics snapshot — so one result is safely shared,
    e.g. by every waiter of a coalesced service request.  To derive a
    changed result, ``dataclasses.replace`` it; to edit a mapping, copy
    it first (``dict(result.outputs)``).

    Attributes:
        outputs: payloads returned to the caller, keyed by task id then
            output channel (a channel is returned when its consumer list
            is empty or contains TNULL).
        stats: aggregate timing statistics (virtual time).
        metrics: always-on metrics snapshot (task latency distribution,
            bytes on the wire, queue depths, utilization); populated by
            every backend at the end of the run.
    """

    outputs: Mapping[TaskId, Mapping[int, Payload]] = field(
        default_factory=FrozenDict
    )
    stats: Stats = field(default_factory=Stats)
    metrics: MetricsSnapshot | None = None

    def output(self, tid: TaskId, channel: int = 0) -> Payload:
        """The payload task ``tid`` returned on ``channel``.

        Raises:
            KeyError: when the task returned nothing on that channel.
        """
        return self.outputs[tid][channel]

    def single_output(self) -> Payload:
        """Convenience accessor when exactly one payload was returned.

        Raises:
            ValueError: when zero or multiple payloads were returned.
        """
        flat = [
            p for by_ch in self.outputs.values() for p in by_ch.values()
        ]
        if len(flat) != 1:
            raise ValueError(
                f"expected exactly one returned payload, got {len(flat)}"
            )
        return flat[0]

    @property
    def makespan(self) -> float:
        """Virtual seconds from start to completion."""
        return self.stats.makespan


def freeze_outputs(
    outputs: Mapping[TaskId, Mapping[int, Payload]],
) -> FrozenDict:
    """A run's returned payloads (task id -> channel -> payload) as a
    read-only mapping of read-only mappings, in the same order."""
    return FrozenDict((tid, FrozenDict(chs)) for tid, chs in outputs.items())
