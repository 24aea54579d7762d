"""The per-run fan-out point for observability events.

A controller owns one :class:`ObsHub` per run.  The hub is deliberately
tiny: it is truthy only when at least one sink is attached, so emission
sites guard with ``if hub:`` and skip event construction entirely on
unobserved runs — the zero-cost-when-unobserved contract.  An armed
live plane is one more sink (:class:`repro.obs.live.LiveStatus`).
"""

from __future__ import annotations

from typing import Iterable

from repro.obs.events import Event, EventSink

__all__ = ["ObsHub", "NULL_HUB"]


class ObsHub:
    """Broadcasts events to a fixed tuple of sinks.

    ``wants_context`` aggregates the attached sinks' capability flags:
    it is True iff at least one sink asked for span-context threading
    (:attr:`~repro.obs.events.EventSink.wants_context`), in which case
    controllers stamp causal ``parents`` onto ``task_started`` events.
    """

    __slots__ = ("sinks", "wants_context")

    def __init__(self, sinks: Iterable[EventSink] = ()) -> None:
        self.sinks: tuple[EventSink, ...] = tuple(sinks)
        self.wants_context: bool = any(
            getattr(s, "wants_context", False) for s in self.sinks
        )

    def __bool__(self) -> bool:
        return bool(self.sinks)

    def emit(self, event: Event) -> None:
        """Deliver one event to every sink."""
        for sink in self.sinks:
            sink.emit(event)


#: Shared empty hub for controllers that were never given sinks.
NULL_HUB = ObsHub()
