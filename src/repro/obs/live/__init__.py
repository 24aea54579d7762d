"""Live observability: watch a run while it is still running.

Everything else in :mod:`repro.obs` is post-hoc — events are collected,
then summarized after ``repro.run`` returns.  This package observes
*in-flight* runs:

* :func:`attach_live` / :class:`LiveConfig` — the arming gate
  (``repro.run(..., live="<dir>")`` or ``$REPRO_LIVE_DIR``); unarmed
  runs construct none of this (the zero-cost contract).
* :class:`LiveStatus` — the one sink an armed run feeds: it queues
  events, and its :class:`StatusWriter` thread folds them into progress,
  ETA and straggler alerts and writes atomic JSON snapshots.  The
  live-only :data:`~repro.obs.events.TASK_RUNNING` report goes to this
  sink alone, so recorded traces and goldens are unchanged.
* ``python -m repro.obs watch`` (terminal view, :func:`render_status`)
  and ``python -m repro.obs serve`` (Prometheus text endpoint,
  :func:`prometheus_text`) read the snapshots from another process.

See ``docs/observability.md`` ("Live monitoring") for the full tour.
"""

from repro.obs.live.serve import (
    CONTENT_TYPE,
    LiveMetricsServer,
    prometheus_text,
)
from repro.obs.live.status import (
    ENV_LIVE_DIR,
    MIN_STRAGGLER_SECONDS,
    STRAGGLER_FACTOR,
    LiveConfig,
    LiveStatus,
    StatusWriter,
    attach_live,
    find_status,
    read_status,
)
from repro.obs.live.watch import render_status

__all__ = [
    "CONTENT_TYPE",
    "ENV_LIVE_DIR",
    "LiveConfig",
    "LiveMetricsServer",
    "LiveStatus",
    "MIN_STRAGGLER_SECONDS",
    "STRAGGLER_FACTOR",
    "StatusWriter",
    "attach_live",
    "find_status",
    "prometheus_text",
    "read_status",
    "render_status",
]
