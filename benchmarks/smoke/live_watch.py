"""Smoke: the live observability plane against a genuinely in-flight run.

A thread-pool ``local`` run of a 21-task reduction — the pool driver
with both ``telemetry=`` and ``live=`` armed — executes on a background
thread with one leaf sleeping sixteen times longer than its siblings.
While it is in flight the run is rendered by ``python -m repro.obs watch
--once`` (which must show mid-run progress) and scraped over HTTP from
the Prometheus endpoint (progress gauge, moving task counter, sketch
quantiles, ``/healthz``); afterwards the terminal status snapshot must
read ``finished``, 21 of 21, and carry the straggler alert.

``python benchmarks/smoke/live_watch.py [--quick] [--out DIR]`` from
anywhere; exit 0 = pass.  ``--quick`` shrinks the sleeps (~2 s instead
of ~9 s); ``--out`` keeps the status snapshots, ``watch.txt`` and
``metrics.txt`` there.  Run by tier-1 (``tests/test_live_smoke.py``) and
by the ``live-smoke`` CI job.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(_ROOT / "src"))

from repro.core.payload import Payload
from repro.graphs import Reduction
from repro.obs.live import (
    LiveConfig,
    LiveMetricsServer,
    find_status,
    read_status,
)
from repro.runtimes import LocalPoolController
from repro.sched import UniformEstimate

STRAGGLER_X = 16  # the slow leaf, in leaf-sleeps (flagged beyond 4x)


def check(ok: bool, message: str) -> None:
    if not ok:  # not ``assert``: the smoke must bite under ``python -O`` too
        raise SystemExit(f"FAIL: {message}")


def add(ins, tid):
    return [Payload(sum(p.data for p in ins))]


def scrape(status_dir: str, until: str, timeout: float = 30.0) -> str:
    """GET /metrics until the exposition matches ``until`` (the first
    snapshot is written before any task completed), then /healthz."""
    server = LiveMetricsServer(status_dir)
    server.start()
    try:
        deadline = time.monotonic() + timeout
        while True:
            with urllib.request.urlopen(server.url, timeout=10) as resp:
                text = resp.read().decode()
            if re.search(until, text):
                break
            check(time.monotonic() < deadline, f"scrape never showed {until}")
            time.sleep(0.02)
        health = server.url.replace("/metrics", "/healthz")
        with urllib.request.urlopen(health, timeout=10) as resp:
            check(resp.read() == b"ok\n", "/healthz did not answer ok")
        return text
    finally:
        server.stop()


def watched_run(out: Path, leaf_sleep: float) -> dict:
    """Run, watch and scrape; returns the terminal status snapshot."""
    g = Reduction(16, 4)
    slow = list(g.leaf_ids())[0]

    def leaf(ins, tid):
        time.sleep(leaf_sleep * (STRAGGLER_X if tid == slow else 1))
        return [ins[0]]

    status_dir = str(out / "live-status")
    shutil.rmtree(status_dir, ignore_errors=True)  # a rerun's stale snapshots
    c = LocalPoolController(
        n_workers=4, mode="thread", telemetry=True,
        live=LiveConfig(
            dir=status_dir, interval=leaf_sleep / 2.5,
            estimate=UniformEstimate(seconds=leaf_sleep),
        ),
    )
    c.initialize(g, None)
    c.register_callback(g.LEAF, leaf)
    c.register_callback(g.REDUCE, add)
    c.register_callback(g.ROOT, add)
    failure = []

    def workload():
        try:
            c.run({t: Payload(i + 1) for i, t in enumerate(g.leaf_ids())})
        except BaseException as exc:  # reported by the main thread
            failure.append(exc)

    runner = threading.Thread(target=workload, name="live-smoke-workload")
    runner.start()
    # Mid-flight: the real CLI verb, and a real scrape.
    watch = subprocess.run(
        [sys.executable, "-m", "repro.obs", "watch", status_dir,
         "--once", "--timeout", "30"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(_ROOT / "src")},
    )
    metrics = scrape(status_dir, until=r"repro_run_tasks_done\S* [1-9]")
    runner.join(300)
    check(not runner.is_alive(), "the workload never finished")
    check(not failure, f"the workload raised {failure!r}")

    (out / "watch.txt").write_text(watch.stdout)
    (out / "metrics.txt").write_text(metrics)
    check(watch.returncode == 0, f"obs watch exited {watch.returncode}")
    for pattern in (r"\d+/21 tasks", r"\[running\]"):
        check(re.search(pattern, watch.stdout), f"watch frame lacks {pattern!r}")
    for needle in (
        "# TYPE repro_run_progress_ratio gauge",
        "repro_run_tasks_done",
        'quantile="0.95"',
    ):
        check(needle in metrics, f"scrape lacks {needle!r}")
    return read_status(find_status(status_dir)[0])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="repro-live-smoke-") as tmp:
        out = args.out or Path(tmp)
        out.mkdir(parents=True, exist_ok=True)
        doc = watched_run(out, leaf_sleep=0.125 if args.quick else 0.5)
    check(doc["state"] == "finished", f"terminal state {doc['state']!r}")
    check(doc["done"] == doc["total"] == 21, f"{doc['done']}/{doc['total']}")
    stragglers = [a for a in doc["alerts"] if a["kind"] == "straggler"]
    check(stragglers, "the injected straggler was never flagged")
    print(f"ok: watched and scraped mid-run; {stragglers[0]['message']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
