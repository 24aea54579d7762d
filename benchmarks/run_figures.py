#!/usr/bin/env python3
"""Regenerate paper figures from the command line.

A thin wrapper over the pytest benchmark suite so users can reproduce a
single figure without remembering pytest flags::

    python benchmarks/run_figures.py fig6          # one figure
    python benchmarks/run_figures.py fig10e fig10f # several
    python benchmarks/run_figures.py all --full    # everything, big sweeps
    python benchmarks/run_figures.py fig3 --trace /tmp/fig3.jsonl
    python benchmarks/run_figures.py --list

Each figure prints its paper-style series and *asserts* the paper's
qualitative shape; a zero exit code means the reproduction claims hold.

``--trace PATH`` (equivalently the ``REPRO_TRACE`` environment variable,
which propagates to the pytest subprocess) captures every benchmarked
run's event stream into one trace file — ``.jsonl`` for a JSONL event
log, anything else for Chrome-trace JSON — ready for
``python -m repro.obs summarize/timeline/diff``.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).parent

FIGURES: dict[str, tuple[str, str]] = {
    "fig2": ("bench_fig2_legion_il_vs_spmd.py",
             "Legion index-launch vs SPMD (merge tree)"),
    "fig3": ("bench_fig3_launcher_overhead.py",
             "Legion launcher overhead strong scaling"),
    "fig6": ("bench_fig6_mergetree_runtimes.py",
             "Merge tree across runtimes vs Original MPI"),
    "fig9": ("bench_fig9_registration.py",
             "Brain data registration across runtimes"),
    "fig10a": ("bench_fig10a_rendering.py", "Volume rendering stage"),
    "fig10b": ("bench_fig10b_full_reduction.py",
               "Full dataflow totals, reduction compositing"),
    "fig10c": ("bench_fig10c_full_binswap.py",
               "Full dataflow totals, binary-swap compositing"),
    "fig10e": ("bench_fig10e_reduction_compositing.py",
               "Reduction compositing stage only"),
    "fig10f": ("bench_fig10f_binswap_compositing.py",
               "Binary-swap compositing stage only"),
    "valence": ("bench_ablation_valence.py", "Ablation: reduction valence"),
    "overdecomp": ("bench_ablation_overdecomp.py",
                   "Ablation: over-decomposition + Charm++ LB"),
    "inmemory": ("bench_ablation_inmemory.py",
                 "Ablation: MPI in-memory messages"),
    "lbperiod": ("bench_ablation_lb_period.py", "Ablation: Charm++ LB period"),
    "radix": ("bench_ablation_radix.py", "Ablation: compositing radix"),
    "placement": ("bench_ablation_placement.py",
                  "Ablation: merge-tree task placement"),
    "machine": ("bench_ablation_machine.py",
                "Ablation: machine-model sensitivity"),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "figures", nargs="*",
        help="figure ids (see --list) or 'all'",
    )
    parser.add_argument("--list", action="store_true", help="list figure ids")
    parser.add_argument(
        "--full", action="store_true",
        help="use the larger (paper-leaning) sweep ranges",
    )
    parser.add_argument(
        "--trace", metavar="PATH",
        help="capture every run's events here (sets REPRO_TRACE; "
        ".jsonl extension selects the JSONL format)",
    )
    args = parser.parse_args(argv)

    if args.list or not args.figures:
        width = max(len(k) for k in FIGURES) + 2
        for key, (_, desc) in FIGURES.items():
            print(f"{key:<{width}}{desc}")
        return 0

    wanted = list(FIGURES) if "all" in args.figures else args.figures
    unknown = [f for f in wanted if f not in FIGURES]
    if unknown:
        print(f"unknown figure(s): {', '.join(unknown)}; try --list",
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    if args.full:
        env["REPRO_BENCH_SCALE"] = "full"
    if args.trace:
        env["REPRO_TRACE"] = str(pathlib.Path(args.trace).resolve())
    files = [str(HERE / FIGURES[f][0]) for f in wanted]
    cmd = [
        sys.executable, "-m", "pytest", *files,
        "--benchmark-only", "-q", "-s", "--no-header",
    ]
    return subprocess.call(cmd, env=env, cwd=HERE.parent)


if __name__ == "__main__":
    raise SystemExit(main())
