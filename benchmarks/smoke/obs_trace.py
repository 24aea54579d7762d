"""Smoke: an observed run's JSONL trace, from the exporter to the CLI.

A small fig-6 merge tree runs on simulated MPI with a ``JsonlExporter``
and a ``ListSink`` attached.  The file must equal the reference encoding
(``json.dumps(ev.to_dict())``) of the sink's events line by line and
load back into the same events.  Then the attribution toolchain runs on
it as a user would — ``python -m repro.obs summarize`` and ``timeline``
on the capture, ``diff`` on a seeded pair (task 3 slowed 50x) whose
report must name the culprit — and the cross-run gate must actually
gate: ``trends`` passes a steady ledger and flags a seeded 50 %
regression (a silent pass here means regressions would sail through the
trends check on real ledgers too).

``python benchmarks/smoke/obs_trace.py [--quick] [--out DIR]`` from
anywhere; exit 0 = pass.  ``--quick`` shrinks the runs (~2 s instead of
~3 s); ``--out`` keeps the traces, the diff report and the ledger
there.  Run by tier-1 (``tests/test_obs_smoke.py``) and by the
``perf-smoke`` CI job.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

from benchmarks.perf.suite import capture_trace
from repro.analysis.mergetree import MergeTreeWorkload
from repro.data import hcci_proxy
from repro.obs import JsonlExporter, ListSink, load_events
from repro.obs.telemetry import Ledger
from repro.runtimes import MPIController


def check(ok: bool, message: str) -> None:
    if not ok:  # not ``assert``: the smoke must bite under ``python -O`` too
        raise SystemExit(f"FAIL: {message}")


def obs_cli(*argv: str) -> subprocess.CompletedProcess:
    """``python -m repro.obs ...`` as a user's shell would run it."""
    env = {**os.environ, "PYTHONPATH": str(_ROOT / "src")}
    return subprocess.run(
        [sys.executable, "-m", "repro.obs", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def capture_fig6(path: Path, quick: bool) -> list:
    """One observed merge-tree run; returns the events the sinks saw."""
    side, blocks, procs = (16, 16, 4) if quick else (32, 256, 64)
    field = hcci_proxy((side,) * 3, n_features=12, feature_sigma=2.0, seed=2018)
    workload = MergeTreeWorkload(field, blocks, threshold=0.45, valence=4)
    exporter, sink = JsonlExporter(str(path)), ListSink()
    controller = MPIController(
        procs, cost_model=workload.cost_model(), sinks=[exporter, sink]
    )
    workload.run(controller)
    exporter.close()
    return sink.events


def check_trace_file(path: Path, events: list) -> None:
    with open(path) as fp:
        lines = fp.readlines()
    check(len(lines) == len(events), f"{len(lines)} lines, {len(events)} events")
    for n, (line, ev) in enumerate(zip(lines, events), 1):
        check(
            line == json.dumps(ev.to_dict()) + "\n",
            f"{path.name}:{n} differs from the reference encoding: {line!r}",
        )
    check(load_events(str(path)) == events, "load_events changed the stream")


def check_cli(trace: Path, out: Path, quick: bool) -> None:
    done = obs_cli("summarize", str(trace))
    check(done.returncode == 0 and "critical path" in done.stdout, done.stderr)
    done = obs_cli("timeline", str(trace), "--width", "48")
    check(done.returncode == 0 and done.stdout.strip() != "", done.stderr)
    base, slow = out / "smoke_base.jsonl", out / "smoke_slow.jsonl"
    leaves = 64 if quick else 256
    clean = capture_trace("controller_tasks", str(base), leaves=leaves)
    capture_trace("controller_tasks", str(slow), slow_task=3, leaves=leaves)
    done = obs_cli("diff", str(base), str(slow))
    (out / "diff_report.txt").write_text(done.stdout)
    check(done.returncode == 0, f"obs diff: {done.stderr}")
    check("t3" in done.stdout, "diff did not name the slowed task t3")
    check("dominant: compute" in done.stdout, "diff did not blame compute")
    # A steady ledger passes; the same ledger plus one run 50 % slower
    # must exit 1 and name the metric.
    ledger = Ledger(str(out / "ledger.jsonl"))
    for day in range(3):
        ledger.append(
            "controller_tasks", "mpi", {"makespan": clean["makespan"]},
            machine="smoke", ts=float(day),
        )
    done = obs_cli("trends", ledger.path, "--threshold", "0.3")
    check(done.returncode == 0, f"trends flagged a steady ledger: {done.stdout}")
    ledger.append(
        "controller_tasks", "mpi", {"makespan": 1.5 * clean["makespan"]},
        machine="smoke", ts=3.0, meta={"seeded": True},
    )
    done = obs_cli("trends", ledger.path, "--threshold", "0.3")
    check(
        done.returncode == 1 and "REGRESSION" in done.stdout,
        "obs trends missed a seeded 50% regression",
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="repro-obs-smoke-") as tmp:
        out = args.out or Path(tmp)
        out.mkdir(parents=True, exist_ok=True)
        trace = out / "fig6_small.jsonl"
        events = capture_fig6(trace, args.quick)
        check_trace_file(trace, events)
        check_cli(trace, out, args.quick)
    print(
        f"ok: {len(events)} events byte-identical to the reference encoding; "
        "summarize, timeline and diff ran; trends flagged the seeded regression"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
