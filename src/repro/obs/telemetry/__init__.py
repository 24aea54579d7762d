"""Bounded-memory telemetry: sketches, flight recorder, ledger.

The production-telemetry layer of :mod:`repro.obs`.  Where the base
observability stack records *everything* (full event streams, complete
traces), this package aggregates at the source so memory stays bounded
no matter how many runs or events flow through:

* :class:`QuantileSketch` — streaming p50/p95/p99 in O(buckets) memory
  with a guaranteed relative-error bound.
* :class:`FlightRecorder` — an always-on ring buffer of recent events,
  dumped to disk only when the run faults or aborts; attach it like any
  other sink (``sinks=[FlightRecorder(dir)]``).
* :class:`Ledger` — a cross-run JSONL record of metric snapshots with
  regression detection (``python -m repro.obs trends``).

Controllers turn the latency sketches on with ``telemetry=True``; the
default is off, preserving the zero-cost-when-unobserved contract and
bit-identical event streams.
"""

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
    "default_machine",
    "detect_regressions",
    "fingerprint",
    "metrics_from_snapshot",
    "render_trends",
]
