"""Runtime observability: events, metrics, exporters, critical path.

The paper's pitch is one task graph on many runtimes; this subsystem
makes the *differences* between those runtimes measurable.  Every
controller emits the same structured event vocabulary
(:mod:`repro.obs.events`) through attached :class:`EventSink` objects,
keeps an always-on :class:`MetricsRegistry`
(:mod:`repro.obs.metrics`) snapshotted into each
:class:`~repro.runtimes.result.RunResult`, and can stream runs to
Chrome-trace / JSONL files (:mod:`repro.obs.export`) for Perfetto or
the ``python -m repro.obs`` CLI (summarize / timeline / diff / trends /
watch / serve), including critical-path attribution
(:mod:`repro.obs.critical_path`), causal-DAG queries
(:mod:`repro.obs.spans`), per-rank resource timelines
(:mod:`repro.obs.timeline`), and trace diffing (:mod:`repro.obs.diff`).
A run's kept trace (``sinks=[ListSink()]``, read as ``sink.events``) is
that same event list, so every view here reads it unchanged.

For production-scale capture there is a bounded-memory telemetry layer
(:mod:`repro.obs.telemetry`): streaming quantile sketches, an
always-on flight recorder, and a cross-run metrics ledger behind
``python -m repro.obs trends``.

Quick start::

    from repro.obs import ChromeTraceExporter, ListSink, critical_path

    sink = ListSink()
    controller = MPIController(4, sinks=[sink])
    result = workload.run(controller)
    cp = critical_path(sink.events)
    print(cp.breakdown(), result.metrics.summary())
"""

from repro.obs.critical_path import BUCKETS, CriticalPath, PathStep, critical_path
from repro.obs.events import (
    CORE_VOCABULARY,
    FAULT_INJECTED,
    FAULT_VOCABULARY,
    LIVE_VOCABULARY,
    MESSAGE_DELIVERED,
    MESSAGE_SENT,
    MIGRATION,
    OVERHEAD,
    RANK_DEAD,
    RUN_FINISHED,
    RUN_STARTED,
    SCHED_MIGRATED,
    PLAN_FALLBACK,
    SCHED_PLANNED,
    SCHED_STEAL,
    SCHED_VOCABULARY,
    TASK_ENQUEUED,
    TASK_FINISHED,
    TASK_MIGRATED,
    TASK_RETRY,
    TASK_RUNNING,
    TASK_STARTED,
    VOCABULARY,
    Event,
    EventSink,
    ListSink,
)
from repro.obs.live import (
    LiveConfig,
    LiveStatus,
    attach_live,
    prometheus_text,
)
from repro.obs.export import (
    ChromeTraceExporter,
    JsonlExporter,
    events_from_chrome,
    events_from_jsonl,
    load_events,
    split_runs,
)
from repro.obs.diff import (
    RunDiff,
    diff_runs,
    diff_traces,
    render_diff,
)
from repro.obs.hub import NULL_HUB, ObsHub
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    TimeSeries,
)
from repro.obs.telemetry import (
    FlightRecorder,
    Ledger,
    QuantileSketch,
)
from repro.obs.spans import (
    CausalDag,
    TaskSpan,
    causal_dag,
    recovery_accounting,
)
from repro.obs.timeline import (
    RunTimelines,
    ascii_timeline,
    resource_timelines,
    svg_timeline,
)

__all__ = [
    "BUCKETS",
    "CORE_VOCABULARY",
    "CausalDag",
    "ChromeTraceExporter",
    "Counter",
    "CriticalPath",
    "Event",
    "EventSink",
    "FAULT_INJECTED",
    "FAULT_VOCABULARY",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "JsonlExporter",
    "LIVE_VOCABULARY",
    "Ledger",
    "ListSink",
    "LiveConfig",
    "LiveStatus",
    "MESSAGE_DELIVERED",
    "MESSAGE_SENT",
    "MIGRATION",
    "SCHED_MIGRATED",
    "PLAN_FALLBACK",
    "SCHED_PLANNED",
    "SCHED_STEAL",
    "SCHED_VOCABULARY",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NULL_HUB",
    "OVERHEAD",
    "ObsHub",
    "PathStep",
    "QuantileSketch",
    "RANK_DEAD",
    "RUN_FINISHED",
    "RUN_STARTED",
    "RunDiff",
    "RunTimelines",
    "TASK_ENQUEUED",
    "TASK_FINISHED",
    "TASK_MIGRATED",
    "TASK_RETRY",
    "TASK_RUNNING",
    "TASK_STARTED",
    "TaskSpan",
    "TimeSeries",
    "VOCABULARY",
    "ascii_timeline",
    "attach_live",
    "causal_dag",
    "critical_path",
    "diff_runs",
    "diff_traces",
    "events_from_chrome",
    "events_from_jsonl",
    "load_events",
    "prometheus_text",
    "recovery_accounting",
    "render_diff",
    "resource_timelines",
    "split_runs",
    "svg_timeline",
]
