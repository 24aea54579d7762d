"""Result of one controller run."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.ids import TaskId
from repro.core.payload import Payload
from repro.obs.metrics import MetricsSnapshot
from repro.sim.trace import Stats


@dataclass
class RunResult:
    """Everything a controller run produced.

    Attributes:
        outputs: payloads returned to the caller, keyed by task id then
            output channel (a channel is returned when its consumer list
            is empty or contains TNULL).
        stats: aggregate timing statistics (virtual time).
        metrics: always-on metrics snapshot (task latency distribution,
            bytes on the wire, queue depths, utilization); populated by
            every backend at the end of the run.
    """

    outputs: dict[TaskId, dict[int, Payload]] = field(default_factory=dict)
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
