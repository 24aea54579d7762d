#!/usr/bin/env python3
"""The diagnostic toolbox: Dot, events, metrics, critical path, replay.

The paper sells BabelFlow partly on developer experience — task graphs
you can draw, over-decomposed runs you can debug serially, identical
tasks across runtimes for regression testing.  This example walks the
whole toolbox on one merge-tree run, built on the observability layer
(:mod:`repro.obs`): one stream of structured lifecycle events feeds
every view — the run's kept trace, Chrome trace files, per-rank
timelines, and the critical-path analyzer.

Run:  python examples/profiling_and_debugging.py
"""

from __future__ import annotations

import tempfile

from repro.analysis.mergetree import MergeTreeWorkload
from repro.data import hcci_proxy
from repro.obs import (
    ChromeTraceExporter,
    ListSink,
    ascii_timeline,
    critical_path,
    load_events,
    resource_timelines,
)
from repro.runtimes import (
    CharmController,
    MPIController,
    RecordingController,
    replay_task,
)


def main() -> None:
    field = hcci_proxy((24, 24, 24), n_features=12, seed=13)
    wl = MergeTreeWorkload(
        field, n_blocks=8, threshold=0.5, valence=2,
        sim_shape=(512, 512, 512),
    )

    # --- 1. Draw the dataflow (paper Section III: Dot output). ----------
    dot = wl.graph.to_dot(
        subset=[wl.graph.local_id(0), wl.graph.join_id(1, 0),
                wl.graph.correction_id(1, 0)],
    )
    print("dot snippet of leaf 0's neighborhood:")
    print("\n".join(dot.splitlines()[:6]) + "\n...")

    # --- 2. Observe a run: events kept in memory + a Chrome trace. ------
    trace_path = tempfile.mktemp(suffix=".json")
    exporter = ChromeTraceExporter(trace_path)
    kept = ListSink()
    c = MPIController(4, cost_model=wl.cost_model(), sinks=[kept, exporter])
    result = wl.run(c)
    exporter.close()
    events = kept.events  # the run's event list
    types = {e.type for e in events}
    print(f"\nmakespan: {result.makespan:.4f}s virtual")
    print(f"lifecycle events observed: {len(events)} "
          f"({len(types)} distinct types)")
    print(f"chrome trace written: {trace_path} "
          f"(open in Perfetto, or `python -m repro.obs summarize`)")

    # --- 3. Where did the time go?  Stats, metrics, critical path. ------
    print("\nwhere the time went:")
    print(result.stats.breakdown())

    m = result.metrics  # always on, even with no sinks attached
    lat = m.histograms["task_compute_seconds"]
    print(f"\ntask latency: n={lat['count']} mean={lat['mean']:.2e}s "
          f"max={lat['max']:.2e}s")
    print(f"peak ready-queue depth: {m.gauge('queue_depth_peak'):.0f}")
    print(f"mean utilization: {m.gauge('utilization_mean'):.0%}")

    cp = critical_path(events)
    chain = " -> ".join(f"t{t}" for t in cp.tasks[:8])
    print(f"\ncritical path ({len(cp.tasks)} tasks): {chain} ...")
    print(cp.breakdown())

    # --- 4. Per-rank views of the same events. -------------------------
    tl = resource_timelines(events)
    u = [tl.utilization(p) for p in range(tl.n_procs)]
    print(f"\nper-rank utilization: {[f'{x:.0%}' for x in u]}")
    print(f"load imbalance (max/mean): {m.gauge('imbalance'):.2f}")
    print("\nschedule (# = computing, + = runtime overhead):")
    print(ascii_timeline(events, width=64))

    # --- 5. Same events from a different runtime (regression testing). --
    charm_kept = ListSink()
    wl.run(CharmController(4, cost_model=wl.cost_model(), sinks=[charm_kept]))
    shared = types & charm_kept.types()
    print(f"\nMPI and Charm++ share {len(shared)} event types — one "
          f"consumer profiles every backend")

    # Round-trip: the Chrome trace reloads to the exact event stream.
    reloaded = load_events(trace_path)
    assert len(reloaded) == len(events)

    # --- 6. Record a run, then unit test one task in isolation. ---------
    rec_controller = RecordingController()
    wl.run(rec_controller)
    rec = rec_controller.recording
    join_tid = wl.graph.join_id(1, 1)
    replay = replay_task(rec, wl.join, join_tid)
    print(f"\nreplayed join task {join_tid} in isolation: "
          f"matches recorded outputs = {replay.matches}")

    def buggy_join(inputs, tid):
        out = wl.join(inputs, tid)
        return [out[0], out[0]]  # wrong payload on the broadcast channel

    broken = replay_task(rec, buggy_join, join_tid)
    print(f"buggy join detected: matches={broken.matches}, "
          f"mismatched channels={broken.mismatched_channels}")
    assert replay.matches and not broken.matches


if __name__ == "__main__":
    main()
