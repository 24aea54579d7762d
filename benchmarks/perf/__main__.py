"""CLI entry point: ``python -m benchmarks.perf``.

Runs the hot-path suite, writes ``BENCH_simcore.json`` at the repo root
(or ``--output``), and with ``--check BASELINE`` exits 1 on a wall-clock
regression beyond the threshold or any determinism drift.  A ``--check``
run writes its report only where ``--output`` says — nowhere by default,
so checking the committed baseline never overwrites it.

``--trace-dir DIR`` captures a JSONL event trace per traceable benchmark
(CI uploads them as artifacts).  On a ``--check`` failure the traces are
diffed against ``--baseline-traces DIR`` when given (``python -m
repro.obs diff`` style: which tasks/phases moved, compute vs. network
vs. wait), falling back to a single-run attribution report.

``--ledger PATH`` appends each benchmark's numbers to the cross-run
JSONL ledger (:mod:`repro.obs.telemetry.ledger`) so ``python -m
repro.obs trends`` can flag drift across many runs on the same machine —
a longer-memory complement to the single-baseline ``--check``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from benchmarks.perf.suite import (
    BENCHMARKS,
    DEFAULT_OUTPUT,
    DEFAULT_THRESHOLD,
    TRACEABLE,
    capture_trace,
    check_against_baseline,
    run_suite,
    write_report,
)


def _trace_name(bench: str) -> str:
    return f"trace_{bench}.jsonl"


def _append_ledger(ledger_path: Path, report: dict) -> None:
    """Record each benchmark's metrics in the cross-run trends ledger."""
    from repro.obs.telemetry import Ledger

    ledger = Ledger(str(ledger_path))
    for name, entry in report.get("benchmarks", {}).items():
        metrics = {
            k: float(v)
            for k, v in entry.items()
            if isinstance(v, (int, float))
        }
        ledger.append(name, "perf", metrics, meta={"reps": report.get("reps")})
    print(f"[perf] ledger updated: {ledger_path}")


def _capture_traces(trace_dir: Path, names: list[str]) -> dict[str, Path]:
    """Capture one JSONL trace per traceable benchmark in ``names``."""
    trace_dir.mkdir(parents=True, exist_ok=True)
    captured: dict[str, Path] = {}
    for name in names:
        if name not in TRACEABLE:
            continue
        path = trace_dir / _trace_name(name)
        print(f"[perf] capturing trace for {name} -> {path}", flush=True)
        capture_trace(name, str(path))
        captured[name] = path
    return captured


def _explain_regressions(
    failures: list[str],
    captured: dict[str, Path],
    baseline_traces: Path | None,
) -> None:
    """Print per-benchmark attribution for each failed benchmark."""
    from repro.obs import load_events, render_diff
    from repro.obs.cli import summarize_run
    from repro.obs.diff import diff_traces

    failed = {f.split(":", 1)[0] for f in failures}
    for name in sorted(failed & set(captured)):
        current = load_events(str(captured[name]))
        base_path = (
            baseline_traces / _trace_name(name)
            if baseline_traces is not None
            else None
        )
        print(f"[perf] --- attribution for {name} ---", file=sys.stderr)
        if base_path is not None and base_path.exists():
            for d in diff_traces(load_events(str(base_path)), current):
                print(render_diff(d), file=sys.stderr)
        else:
            print(
                "[perf] (no baseline trace; single-run attribution)",
                file=sys.stderr,
            )
            print(summarize_run(current, 0, 5), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf",
        description="Simulator hot-path perf suite (see docs/performance.md).",
    )
    parser.add_argument(
        "--reps", type=int, default=3,
        help="repetitions per benchmark; best (minimum) wall time is kept",
    )
    parser.add_argument(
        "--output", type=Path,
        help=f"where to write the report (default: {DEFAULT_OUTPUT}; "
        "with --check, nowhere)",
    )
    parser.add_argument(
        "--only", action="append", choices=sorted(BENCHMARKS),
        help="run a subset of benchmarks (repeatable)",
    )
    parser.add_argument(
        "--check", type=Path, metavar="BASELINE",
        help="compare against a baseline report; exit 1 on regression",
    )
    parser.add_argument(
        "--threshold", type=float,
        default=float(os.environ.get("REPRO_PERF_THRESHOLD", DEFAULT_THRESHOLD)),
        help="allowed fractional wall-clock slowdown vs baseline "
        "(default 0.30; env REPRO_PERF_THRESHOLD overrides)",
    )
    parser.add_argument(
        "--trace-dir", type=Path, metavar="DIR",
        help="capture a JSONL event trace per traceable benchmark here "
        "(separate single-shot runs; timing runs stay unobserved)",
    )
    parser.add_argument(
        "--baseline-traces", type=Path, metavar="DIR",
        help="trace dir of the baseline run; on --check failure the "
        "regression is diffed against it (which tasks/phases moved)",
    )
    parser.add_argument(
        "--ledger", type=Path, metavar="PATH",
        help="append each benchmark's numbers to this cross-run JSONL "
        "ledger (inspect with: python -m repro.obs trends PATH)",
    )
    args = parser.parse_args(argv)

    report = run_suite(reps=args.reps, only=args.only)
    output = args.output
    if output is None and args.check is None:
        output = DEFAULT_OUTPUT
    if output is None:
        print("[perf] report not written (--check without --output)")
    else:
        write_report(report, output)
        print(f"[perf] report written to {output}")
    if args.ledger is not None:
        _append_ledger(args.ledger, report)

    names = args.only or list(BENCHMARKS)
    captured: dict[str, Path] = {}
    if args.trace_dir is not None:
        captured = _capture_traces(args.trace_dir, names)

    if args.check is not None:
        baseline = json.loads(args.check.read_text())
        failures = check_against_baseline(report, baseline, args.threshold)
        if failures:
            for f in failures:
                print(f"[perf] FAIL {f}", file=sys.stderr)
            if not captured:
                # Capture on demand so the failure report can say *what*
                # moved, not just that the wall time did.
                trace_dir = args.trace_dir or Path("perf-traces")
                captured = _capture_traces(
                    trace_dir, sorted({f.split(":", 1)[0] for f in failures})
                )
            _explain_regressions(failures, captured, args.baseline_traces)
            return 1
        print(f"[perf] OK: within {args.threshold:.0%} of {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
