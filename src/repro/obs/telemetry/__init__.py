"""Bounded-memory telemetry: sketches, flight recorder, ledger.

The production-telemetry layer of :mod:`repro.obs`.  Where the base
observability stack records *everything* (full event streams, complete
traces), this package aggregates at the source so memory stays bounded
no matter how many runs or events flow through:

* :class:`QuantileSketch` — streaming p50/p95/p99 in O(buckets) memory
  with a guaranteed relative-error bound.
* :class:`FlightRecorder` — an always-on ring buffer of recent events,
  dumped to disk only when the run faults or aborts.
* :class:`Ledger` — a cross-run JSONL record of metric snapshots with
  regression detection (``python -m repro.obs trends``).

Controllers opt in with ``telemetry=True`` (or a
:class:`TelemetryConfig`); the default is off, preserving the
zero-cost-when-unobserved contract and bit-identical event streams.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.telemetry.flight import DEFAULT_CAPACITY, FlightRecorder
from repro.obs.telemetry.ledger import (
    HIGHER_IS_BETTER,
    Ledger,
    default_machine,
    detect_regressions,
    fingerprint,
    metrics_from_snapshot,
    render_trends,
)
from repro.obs.telemetry.sketch import DEFAULT_REL_ERR, QuantileSketch

__all__ = [
    "DEFAULT_CAPACITY",
    "DEFAULT_REL_ERR",
    "FlightRecorder",
    "HIGHER_IS_BETTER",
    "Ledger",
    "QuantileSketch",
    "TelemetryConfig",
    "default_machine",
    "detect_regressions",
    "fingerprint",
    "metrics_from_snapshot",
    "render_trends",
]


@dataclass(frozen=True)
class TelemetryConfig:
    """What a controller's built-in telemetry should collect.

    Pass to a controller as ``telemetry=TelemetryConfig(...)`` (or
    ``telemetry=True`` for the defaults).  With telemetry on, the run
    feeds latency sketches (task compute, message latency, queue wait)
    into its :class:`~repro.obs.metrics.MetricsRegistry` — surfaced on
    ``RunResult.metrics.sketches`` — and, if ``flight_dir`` is set,
    attaches a :class:`FlightRecorder` that dumps recent events when the
    run faults or raises.

    Attributes:
        rel_err: relative-error bound of the latency sketches.
        flight_dir: directory for flight-recorder dumps (None disables
            the recorder entirely).
        flight_capacity: ring size of the flight recorder, in events.
    """

    rel_err: float = DEFAULT_REL_ERR
    flight_dir: str | None = None
    flight_capacity: int = DEFAULT_CAPACITY

    @classmethod
    def coerce(cls, value) -> "TelemetryConfig | None":
        """Normalize a controller's ``telemetry=`` argument.

        ``None``/``False`` -> None (off), ``True`` -> defaults, a
        :class:`TelemetryConfig` passes through, a dict becomes kwargs.
        """
        if value is None or value is False:
            return None
        if value is True:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, dict):
            return cls(**value)
        raise TypeError(
            f"telemetry must be None, bool, dict, or TelemetryConfig, "
            f"got {type(value).__name__}"
        )
