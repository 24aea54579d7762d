"""``python -m repro.obs`` — analyze saved runtime traces.

Sub-commands (all accept Chrome trace-event files written by
:class:`~repro.obs.export.ChromeTraceExporter` (``REPRO_TRACE=...``) and
JSONL event logs; a missing or corrupt file exits 2 with a one-line
error):

* ``summarize <trace>`` — per-run category totals, top-k tasks, load
  imbalance, the critical-path breakdown, and — when the run saw
  faults — the recovery accounting (wasted compute, retries, recovery
  tail).
* ``timeline <trace>`` — per-rank ASCII Gantt with utilization,
  queue-depth and payload-memory peaks; ``--svg FILE`` writes an SVG
  version.
* ``diff <base> <current>`` — what moved between two traces: makespan
  delta with critical-path (compute/network/wait) attribution, phase and
  per-task deltas, new/removed tasks, fault-recovery overhead.
* ``trends <ledger.jsonl>`` — cross-run regression check over a
  telemetry ledger (see :mod:`repro.obs.telemetry.ledger`); exits 1
  when any metric regressed beyond the threshold vs its fingerprint's
  recent history.
* ``watch <dir|file>`` — live terminal view of an *in-flight* run
  (progress bars, per-rank state, straggler alerts) from the
  status snapshots a ``live=``-armed run writes (``$REPRO_LIVE_DIR``);
  ``--once`` prints one frame and exits (headless CI mode).
* ``serve <dir|file>`` — Prometheus text-format HTTP endpoint
  (``/metrics``) over the same snapshots: run progress/ETA gauges,
  ``MetricsRegistry`` counters, sketch p50/p95/p99 summaries.
  ``--once`` prints the exposition to stdout instead of binding.

``summarize`` reads JSONL traces as a stream — one run's events in
memory at a time — so it scales to logs far larger than RAM.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Iterator

from repro.obs.critical_path import critical_path
from repro.obs.events import TASK_FINISHED, Event
from repro.obs.export import iter_events, iter_runs
from repro.obs.spans import recovery_accounting, run_label, run_stats
from repro.obs.timeline import resource_timelines


def _runs(path: str) -> Iterator[list[Event]]:
    """Stream a trace one run at a time (JSONL never fully in memory).

    Raises ValueError (after yielding nothing) when the file holds no
    events.
    """
    n = 0
    for run in iter_runs(iter_events(path)):
        n += 1
        yield run
    if n == 0:
        raise ValueError(f"{path}: no events found")


def summarize_run(run: list[Event], index: int, top: int) -> str:
    """The one single-run report: where the time went, the longest
    tasks, load imbalance, the critical path and, when the run saw
    faults, the recovery accounting."""
    stats = run_stats(run)
    procs = max((ev.proc for ev in run if ev.proc >= 0), default=-1) + 1
    lines = [
        f"== {run_label(run, f'run {index}')} ({procs} procs) ==",
        f"makespan {stats.makespan:.6f}s  tasks {stats.tasks_executed}  "
        f"messages {stats.messages}  bytes {stats.bytes_sent}",
        "",
        "where the time went (all procs):",
        stats.breakdown(),
    ]

    # The longest task executions; retried tasks count each attempt.
    rows = sorted(
        (
            (ev.task, ev.dur, ev.proc)
            for ev in run
            if ev.type == TASK_FINISHED
        ),
        key=lambda r: -r[1],
    )[:top]
    if rows:
        lines += ["", f"top {len(rows)} tasks by compute time:"]
        lines += [
            f"  t{task:<8} {dur:.6f}s  on p{proc}" for task, dur, proc in rows
        ]

    imbalance = resource_timelines(run).imbalance()
    if imbalance > 0:
        lines += ["", f"load imbalance (max/mean busy): {imbalance:.2f}"]

    cp = critical_path(run)
    if cp.steps:
        chain = " -> ".join(f"t{t}" for t in cp.tasks[:12])
        if len(cp.tasks) > 12:
            chain += f" -> ... ({len(cp.tasks)} tasks)"
        lines += [
            "",
            f"critical path ({len(cp.steps)} tasks, "
            f"ends at {cp.makespan:.6f}s):",
            f"  {chain}",
            f"  {cp.breakdown()}",
        ]

    rec = recovery_accounting(run)
    if rec["faults_injected"] or rec["rank_deaths"]:
        lines += [
            "",
            "fault/recovery accounting:",
            f"  faults injected {rec['faults_injected']:g}  "
            f"retries {rec['task_retries']:g}  "
            f"rank deaths {rec['rank_deaths']:g}  "
            f"migrated {rec['tasks_migrated']:g}  "
            f"dropped msgs {rec['messages_dropped']:g}",
            f"  wasted compute {rec['wasted_seconds']:.6f}s  "
            f"replayed compute {rec['replayed_seconds']:.6f}s  "
            f"retry backoff {rec['retry_backoff_seconds']:.6f}s",
            f"  recovery tail {rec['recovery_tail_seconds']:.6f}s "
            f"(first fault at {rec['first_fault_time']:.6f}s)",
        ]
    return "\n".join(lines)


def _cmd_summarize(args: argparse.Namespace) -> int:
    # Runs are summarized as they stream off disk: peak memory is one
    # run's events, however many runs (or gigabytes) the log holds.
    for i, run in enumerate(_runs(args.trace)):
        if i:
            _print("")
        _print(summarize_run(run, i, args.top))
    return 0


def _select_runs(
    path: str, which: int | None
) -> list[tuple[int, list[Event]]]:
    runs = list(_runs(path))
    if which is None:
        return list(enumerate(runs))
    if not 0 <= which < len(runs):
        raise ValueError(
            f"{path}: run {which} out of range (file has {len(runs)})"
        )
    return [(which, runs[which])]


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.obs.timeline import ascii_timeline, svg_timeline

    selected = _select_runs(args.trace, args.run)
    blocks = []
    for i, run in selected:
        blocks.append(
            f"== {run_label(run, f'run {i}')} ==\n"
            + ascii_timeline(run, width=args.width, max_procs=args.max_procs)
        )
    _print("\n\n".join(blocks))
    if args.svg:
        # One file per selected run; a single run keeps the exact name.
        for i, run in selected:
            path = (
                args.svg
                if len(selected) == 1
                else _suffixed(args.svg, f"_run{i}")
            )
            with open(path, "w") as fp:
                fp.write(svg_timeline(run))
            print(f"wrote {path}", file=sys.stderr)
    return 0


def _suffixed(path: str, suffix: str) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}{suffix}{ext}"


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.obs.diff import diff_runs, render_diff

    runs_a, runs_b = list(_runs(args.base)), list(_runs(args.current))
    diffs = [diff_runs(a, b) for a, b in zip(runs_a, runs_b)]
    blocks = [render_diff(d, top=args.top) for d in diffs]
    if len(runs_a) != len(runs_b):
        blocks.append(
            f"note: run counts differ ({len(runs_a)} in {args.base}, "
            f"{len(runs_b)} in {args.current}); "
            f"compared the first {len(diffs)} pair(s)"
        )
    _print("\n\n".join(blocks))
    return 0


def _cmd_trends(args: argparse.Namespace) -> int:
    from repro.obs.telemetry.ledger import (
        Ledger,
        detect_regressions,
        render_trends,
    )

    entries = Ledger(args.ledger).read()
    if not entries:
        raise ValueError(f"{args.ledger}: empty or missing ledger")
    regressions = detect_regressions(
        entries,
        threshold=args.threshold,
        window=args.window,
        min_history=args.min_history,
        metrics=args.metric or None,
    )
    _print(
        render_trends(entries, regressions, threshold=args.threshold)
    )
    return 1 if regressions else 0


def _wait_for_status(path: str, timeout: float) -> list[str]:
    """Poll for status snapshots up to ``timeout`` seconds.

    Lets ``watch``/``serve --once`` be started *before* (or race with)
    the run they observe — the pattern CI uses.  Raises the usual
    ValueError when nothing appears in time.
    """
    import time as _time

    from repro.obs.live import find_status

    deadline = _time.monotonic() + max(0.0, timeout)
    while True:
        try:
            return find_status(path)
        except ValueError:
            if _time.monotonic() >= deadline:
                raise
            _time.sleep(0.1)


def _cmd_watch(args: argparse.Namespace) -> int:
    import time as _time

    from repro.obs.live import read_status, render_status

    paths = _wait_for_status(args.status, args.timeout)
    if args.once:
        blocks = [
            render_status(read_status(p), width=args.width) for p in paths
        ]
        _print("\n\n".join(blocks))
        return 0
    try:
        while True:
            paths = _wait_for_status(args.status, args.timeout)
            blocks = []
            finished = True
            for p in paths:
                status = read_status(p)
                blocks.append(render_status(status, width=args.width))
                if status.get("state") == "running":
                    finished = False
            if not args.no_clear and sys.stdout.isatty():
                sys.stdout.write("\x1b[2J\x1b[H")
            _print("\n\n".join(blocks))
            if finished:
                return 0
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs.live import (
        LiveMetricsServer,
        prometheus_text,
        read_status,
    )

    if args.once:
        paths = _wait_for_status(args.status, args.timeout)
        _print(prometheus_text([read_status(p) for p in paths]))
        return 0
    if not os.path.exists(args.status):
        raise ValueError(f"{args.status}: no such file or directory")
    server = LiveMetricsServer(args.status, addr=args.addr, port=args.port)
    server.start()
    print(f"serving {server.url} (Ctrl-C to stop)", flush=True)
    try:
        server.join()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def _print(text: str) -> None:
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # Downstream pager/head closed early; silence the shutdown flush.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser(
        "summarize", help="summarize a saved Chrome-trace/JSONL event log"
    )
    p_sum.add_argument("trace", help="path written via REPRO_TRACE or an exporter")
    p_sum.add_argument(
        "--top", type=int, default=5, metavar="K",
        help="how many of the longest tasks to list (default 5)",
    )
    p_sum.set_defaults(fn=_cmd_summarize)

    p_tl = sub.add_parser(
        "timeline", help="per-rank resource timeline (ASCII, optional SVG)"
    )
    p_tl.add_argument("trace")
    p_tl.add_argument(
        "--width", type=int, default=64, metavar="COLS",
        help="timeline width in characters (default 64)",
    )
    p_tl.add_argument(
        "--max-procs", type=int, default=32, metavar="N",
        help="ranks to show before eliding (default 32)",
    )
    p_tl.add_argument(
        "--run", type=int, default=None, metavar="I",
        help="only this run index (default: all runs in the file)",
    )
    p_tl.add_argument(
        "--svg", metavar="FILE", help="also write an SVG Gantt chart"
    )
    p_tl.set_defaults(fn=_cmd_timeline)

    p_diff = sub.add_parser(
        "diff", help="compare two traces run-by-run (what moved, and why)"
    )
    p_diff.add_argument("base", help="baseline trace")
    p_diff.add_argument("current", help="trace to explain against the baseline")
    p_diff.add_argument(
        "--top", type=int, default=8, metavar="K",
        help="how many moved tasks/phases to list (default 8)",
    )
    p_diff.set_defaults(fn=_cmd_diff)

    p_tr = sub.add_parser(
        "trends",
        help="flag cross-run metric regressions in a telemetry ledger "
        "(exit 1 on regression)",
    )
    p_tr.add_argument(
        "ledger", help="JSONL ledger written by repro.obs.telemetry.Ledger"
    )
    p_tr.add_argument(
        "--threshold", type=float, default=0.3, metavar="FRAC",
        help="relative change that counts as a regression (default 0.3)",
    )
    p_tr.add_argument(
        "--window", type=int, default=8, metavar="N",
        help="baseline window: preceding runs whose median is compared "
        "(default 8)",
    )
    p_tr.add_argument(
        "--min-history", type=int, default=1, metavar="N",
        help="minimum prior runs of a fingerprint before judging "
        "(default 1)",
    )
    p_tr.add_argument(
        "--metric", action="append", metavar="NAME",
        help="only check this metric (repeatable; default: all shared)",
    )
    p_tr.set_defaults(fn=_cmd_trends)

    p_watch = sub.add_parser(
        "watch",
        help="live terminal view of an in-flight run "
        "(status dir from live=/$REPRO_LIVE_DIR)",
    )
    p_watch.add_argument(
        "status",
        help="status directory (live-*.json) or a single status file",
    )
    p_watch.add_argument(
        "--once", action="store_true",
        help="print one frame and exit (headless/CI mode)",
    )
    p_watch.add_argument(
        "--interval", type=float, default=0.5, metavar="SEC",
        help="refresh period (default 0.5)",
    )
    p_watch.add_argument(
        "--width", type=int, default=40, metavar="COLS",
        help="progress-bar width (default 40)",
    )
    p_watch.add_argument(
        "--timeout", type=float, default=0.0, metavar="SEC",
        help="wait up to SEC for the first snapshot to appear "
        "(default 0: fail immediately)",
    )
    p_watch.add_argument(
        "--no-clear", action="store_true",
        help="append frames instead of clearing the screen",
    )
    p_watch.set_defaults(fn=_cmd_watch)

    p_srv = sub.add_parser(
        "serve",
        help="Prometheus text endpoint (/metrics) over live status "
        "snapshots",
    )
    p_srv.add_argument(
        "status",
        help="status directory (live-*.json) or a single status file",
    )
    p_srv.add_argument(
        "--addr", default="127.0.0.1", metavar="HOST",
        help="bind address (default 127.0.0.1)",
    )
    p_srv.add_argument(
        "--port", type=int, default=9464, metavar="PORT",
        help="bind port; 0 picks a free one (default 9464)",
    )
    p_srv.add_argument(
        "--once", action="store_true",
        help="print the exposition to stdout and exit (no server)",
    )
    p_srv.add_argument(
        "--timeout", type=float, default=0.0, metavar="SEC",
        help="with --once, wait up to SEC for the first snapshot",
    )
    p_srv.set_defaults(fn=_cmd_serve)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
