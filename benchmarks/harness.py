"""Shared helpers for the figure-reproduction benchmarks.

Every module in this directory regenerates one figure of the paper's
evaluation section: it sweeps the simulated core count, runs the real
workload through the real controllers on the discrete-event substrate,
prints the same series the paper plots, and *asserts the paper's
qualitative shape* (who wins, by roughly what factor, where behaviour
changes) so the reproduction claims are regression-checked.

Scale control: the sweeps default to a laptop-friendly range; set
``REPRO_BENCH_SCALE=full`` to extend toward the paper's core counts
(slower; minutes per figure).

Absolute seconds are *virtual* (simulated) time and are not expected to
match the paper's testbed — see EXPERIMENTS.md for the per-figure
comparison of shapes.

Tracing: set ``REPRO_TRACE=<path>`` to capture every benchmarked run's
observability events into one file — Chrome trace-event JSON by default
(open in Perfetto / ``chrome://tracing``, or feed to
``python -m repro.obs summarize``), JSONL when the path ends in
``.jsonl``.  All runs of the process share the file; each run becomes
its own process track.

Flight recording: set ``REPRO_FLIGHT_DIR=<dir>`` to attach a
:class:`~repro.obs.telemetry.FlightRecorder` sink to every benchmarked
run.
Clean runs write nothing; a run that crashes or injects a fault dumps
its last events to ``<dir>`` for post-mortem (CI uploads the directory
as an artifact on failure).
"""

from __future__ import annotations

import atexit
import os
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.data import hcci_proxy
from repro.obs import EventSink

#: "small" (default) or "full" sweep ranges.
SCALE = os.environ.get("REPRO_BENCH_SCALE", "small")

_trace_exporter: EventSink | None = None


def trace_exporter() -> EventSink | None:
    """The process-wide exporter configured by ``REPRO_TRACE``, if any.

    Created lazily on first use and closed (flushed to disk) atexit.
    """
    global _trace_exporter
    path = os.environ.get("REPRO_TRACE")
    if not path:
        return None
    if _trace_exporter is None:
        from repro.obs import ChromeTraceExporter, JsonlExporter

        cls = JsonlExporter if path.endswith(".jsonl") else ChromeTraceExporter
        _trace_exporter = cls(path)
        atexit.register(_trace_exporter.close)
    return _trace_exporter


def observe(controller):
    """Attach the ``REPRO_TRACE`` exporter and the ``REPRO_FLIGHT_DIR``
    flight recorder (when configured; unless the controller already has
    a recorder) and return the controller, so benchmark call sites stay
    one-liners."""
    exporter = trace_exporter()
    if exporter is not None:
        controller.add_sink(exporter)
    dump_dir = os.environ.get("REPRO_FLIGHT_DIR")
    if dump_dir:
        from repro.obs.telemetry import FlightRecorder

        if not any(isinstance(s, FlightRecorder) for s in controller._sinks):
            controller.add_sink(FlightRecorder(dump_dir))
    return controller


def sweep_sizes(small: Sequence[int], full: Sequence[int]) -> list[int]:
    """Pick the sweep points for the configured scale."""
    return list(full if SCALE == "full" else small)


def bench_field(shape=(48, 48, 48), n_features=40, seed=2018) -> np.ndarray:
    """The benchmark's HCCI stand-in field (small but feature-rich)."""
    return hcci_proxy(shape, n_features=n_features, feature_sigma=2.0, seed=seed)


def print_series(
    title: str,
    xlabel: str,
    xs: Sequence[int],
    series: Mapping[str, Mapping[int, float]],
    unit: str = "s",
) -> None:
    """Print one figure's data as the paper-style table.

    Args:
        title: figure name.
        xlabel: the x-axis label (cores / nodes / tasks).
        xs: x values in order.
        series: series name -> {x: value}.
        unit: value unit for the header.
    """
    print(f"\n=== {title} ===")
    name_w = max(len(xlabel), *(len(n) for n in series)) + 2
    header = f"{xlabel:<{name_w}}" + "".join(f"{x:>12}" for x in xs)
    print(header)
    print("-" * len(header))
    for name, values in series.items():
        cells = "".join(
            f"{values[x]:>12.4f}" if x in values else f"{'-':>12}" for x in xs
        )
        print(f"{name:<{name_w}}{cells}  [{unit}]")


def speedups(values: Mapping[int, float]) -> dict[int, float]:
    """Normalize a series to its first point (strong-scaling speedup)."""
    xs = sorted(values)
    base = values[xs[0]]
    return {x: base / values[x] for x in xs}


def run_and_time(make_controller: Callable, workload, task_map=None) -> float:
    """Run a workload on a fresh controller; return the virtual makespan."""
    return workload.run(observe(make_controller()), task_map).makespan
