"""Simulated serving resources (cores, NICs).

A :class:`Resource` is a non-preemptive FIFO server: work items submitted
to it execute back to back, each for a caller-specified virtual duration.
:class:`MultiResource` generalizes to ``k`` identical servers (a thread
pool, a multi-core node) using earliest-available assignment.

Because the discrete-event engine fires events in time order, every
``submit`` happens at the current virtual time and the closed-form
``start = max(now, server_free)`` bookkeeping is exact — no token/queue
machinery is needed.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro.core.errors import SimulationError
from repro.sim.engine import Engine


class Resource:
    """A single FIFO server.

    Attributes:
        busy_time: total virtual seconds spent serving (for utilization).
    """

    __slots__ = ("_engine", "_free_at", "busy_time")

    def __init__(self, engine: Engine) -> None:
        self._engine = engine
        self._free_at = 0.0
        self.busy_time = 0.0

    def submit(
        self, duration: float, fn: Callable[..., Any] | None = None, *args: Any
    ) -> tuple[float, float]:
        """Enqueue a job of ``duration`` virtual seconds.

        Returns ``(start, end)`` times; if ``fn`` is given it fires at
        ``end``.
        """
        if duration < 0:
            raise SimulationError(f"negative duration {duration}")
        engine = self._engine
        start = engine._now
        if self._free_at > start:
            start = self._free_at
        end = start + duration
        self._free_at = end
        self.busy_time += duration
        if fn is not None:
            engine.call_at(end, fn, *args)
        return start, end


class MultiResource:
    """``k`` identical FIFO servers with earliest-available dispatch."""

    __slots__ = ("_engine", "_free", "busy_time")

    def __init__(self, engine: Engine, servers: int) -> None:
        if servers <= 0:
            raise SimulationError(f"servers must be positive, got {servers}")
        self._engine = engine
        # Heap of (free_at, server_index); lazily clamped to `now`.
        self._free: list[tuple[float, int]] = [(0.0, i) for i in range(servers)]
        heapq.heapify(self._free)
        self.busy_time = 0.0

    def submit(
        self, duration: float, fn: Callable[..., Any] | None = None, *args: Any
    ) -> tuple[float, float]:
        """Enqueue a job on the earliest-available server.

        Returns ``(start, end)``; ``fn(*args)`` fires at ``end`` if given.
        """
        if duration < 0:
            raise SimulationError(f"negative duration {duration}")
        free_at, idx = heapq.heappop(self._free)
        start = self._engine._now
        if free_at > start:
            start = free_at
        end = start + duration
        heapq.heappush(self._free, (end, idx))
        self.busy_time += duration
        if fn is not None:
            self._engine.call_at(end, fn, *args)
        return start, end
