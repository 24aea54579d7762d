#!/usr/bin/env python3
"""Watch a run while it runs: live progress, ETA, and straggler alerts.

Everything in ``repro.obs`` up to now is post-hoc; this example arms the
*live* plane (:mod:`repro.obs.live`) on a real-core run with one
deliberately slow task.  A watcher thread plays the role of
``python -m repro.obs watch``: it polls the atomic status snapshots the
run writes and prints progress/ETA as they move, then the script shows
the straggler alert the detector raised mid-run and the Prometheus
exposition a scraper would see at ``python -m repro.obs serve``.

Run:  python examples/live_monitoring.py

To watch interactively from another terminal instead, start it as
``REPRO_LIVE_DIR=/tmp/live python examples/live_monitoring.py`` and run
``python -m repro.obs watch /tmp/live`` there.
"""

from __future__ import annotations

import tempfile
import threading
import time

from repro.core.payload import Payload
from repro.graphs import Reduction
from repro.obs.live import (
    LiveConfig,
    find_status,
    prometheus_text,
    read_status,
)
from repro.runtimes import LocalPoolController
from repro.sched import UniformEstimate

LEAVES, VALENCE = 16, 4
NORMAL_SECONDS = 0.05
SLOW_SECONDS = 1.0  # one leaf runs 20x its siblings: the straggler


def make_callbacks(g, slow_tid):
    # Module-level-free closures are fine: the example runs thread mode.
    def leaf(ins, tid):
        time.sleep(SLOW_SECONDS if tid == slow_tid else NORMAL_SECONDS)
        return [ins[0]]

    def add(ins, tid):
        return [Payload(sum(p.data for p in ins))]

    return {g.LEAF: leaf, g.REDUCE: add, g.ROOT: add}


def watcher(status_dir: str, stop: threading.Event) -> None:
    """A minimal in-process ``obs watch``: poll, print, repeat."""
    seen = None
    while not stop.wait(0.2):
        try:
            doc = read_status(find_status(status_dir)[0])
        except ValueError:
            continue  # first snapshot not written yet
        line = (
            f"  [watch] {doc['done']:2d}/{doc['total']} tasks"
            f"  progress {100 * doc['progress']:5.1f}%"
            f"  eta {doc['eta']:.2f}s" if doc["eta"] is not None else None
        )
        if line and line != seen:
            print(line, flush=True)
            seen = line


def main() -> None:
    status_dir = tempfile.mkdtemp(prefix="repro-live-")
    g = Reduction(LEAVES, VALENCE)
    slow_tid = list(g.leaf_ids())[0]

    # Arm the live plane: snapshots every 100 ms, straggler threshold
    # 4x the declared per-task estimate (so the 1 s leaf trips it).
    cfg = LiveConfig(
        dir=status_dir,
        interval=0.1,
        estimate=UniformEstimate(seconds=NORMAL_SECONDS),
    )
    controller = LocalPoolController(
        n_workers=4, mode="thread", live=cfg, telemetry=True
    )
    controller.initialize(g, None)
    for cid, fn in make_callbacks(g, slow_tid).items():
        controller.register_callback(cid, fn)

    print(f"running {g.size()} tasks on 4 threads; status -> {status_dir}")
    print(f"task {slow_tid} sleeps {SLOW_SECONDS}s vs {NORMAL_SECONDS}s")
    stop = threading.Event()
    th = threading.Thread(target=watcher, args=(status_dir, stop))
    th.start()
    try:
        result = controller.run(
            {t: Payload(i + 1) for i, t in enumerate(g.leaf_ids())}
        )
    finally:
        stop.set()
        th.join()

    doc = read_status(find_status(status_dir)[0])
    print(f"\nfinal state: {doc['state']}  "
          f"({doc['done']}/{doc['total']} tasks, "
          f"makespan {result.stats.makespan:.2f}s)")
    print("alerts raised mid-run:")
    for alert in doc["alerts"]:
        print(f"  [{alert['kind']}] {alert['message']}")
    assert any(
        a["kind"] == "straggler" and a["task"] == slow_tid
        for a in doc["alerts"]
    ), "the slow leaf should have been flagged"

    print("\nwhat `python -m repro.obs serve` would expose (excerpt):")
    for line in prometheus_text([doc]).splitlines():
        if line.startswith(
            ("repro_run_progress", "repro_run_tasks_done",
             "repro_run_alerts", "repro_task_seconds")
        ):
            print(f"  {line}")


if __name__ == "__main__":
    main()
