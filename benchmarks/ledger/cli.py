"""Command line of the ledger (see ``README.md`` beside this file).

``--workload NAME --seed N --seconds S --trace 0|1`` is one pass of one
workload — the contract ``BENCHMARK.json`` describes: with ``--trace 0``
the end-to-end metrics, with ``--trace 1`` the per-layer metrics, as one
JSON object on the last line of stdout.  Without ``--workload`` every
workload gets both passes and the ledger is printed and written to
``out/ledger.json``; ``--compare A.json B.json`` judges two such files.

This process only orchestrates: every workload runs in fresh child
processes (``child.py``), so nothing here imports ``repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

from benchmarks.ledger.stats import median, percentile, spin, summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

#: Seconds of pure-Python spin before and after each pass.
SPIN_SECONDS = 0.25
#: The two spins may differ by this share before a pass is marked noisy.
NOISY_SPIN_SHARE = 0.10
#: Fresh processes a timed pass pools: each sets up (one ``setup_s``
#: sample each) and then times ops for its share of ``--seconds``.  Ops
#: from several processes, a few seconds apart, average over what one
#: process keeps for its whole life (memory layout) and over short slow
#: spells of the host.
TIMED_PROCESSES = 3
#: A child that runs longer than this is killed and the pass fails.
CHILD_TIMEOUT = 170.0


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fp:
        return json.load(fp)


def run_child(workload: str, seed: int, mode: str, seconds: float,
              quick: bool) -> dict:
    """Run one child process to its end and return its report."""
    path = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=OUT) as tmp:
        config = {"workload": workload, "seed": seed, "mode": mode,
                  "seconds": seconds, "quick": quick, "out": str(OUT),
                  "tmp": tmp}
        proc = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.ledger.child", json.dumps(config)],
            cwd=ROOT,
            # One hash seed: set and dict order must not differ run to run.
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": "0"},
            stdout=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT)
        finally:
            # The child leads its own process group: nothing it started
            # (pool workers included) outlives this call, however it ended.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload}: {mode} child exited with code {proc.returncode}"
        )
    return json.loads(stdout.splitlines()[-1])


def tail(latencies) -> float:
    """The 95th percentile — or, below 200 samples, the highest
    percentile that still has ten samples beyond it, never under the
    median (every batch workload: one request per op)."""
    q = min(0.95, max(0.5, 1.0 - 10.0 / len(latencies)))
    return percentile(latencies, q)


def end_to_end(workload: str, seed: int, seconds: float, quick: bool) -> dict:
    """The timed pass: values of the end-to-end metrics, and for each the
    per-op (per-process for ``setup_s``) samples its spread is read from."""
    n = 1 if quick else TIMED_PROCESSES
    reports = [
        run_child(workload, seed, "timed", seconds / n, quick) for _ in range(n)
    ]
    ops = [op for r in reports for op in r["ops"]]
    walls = [op["wall"] for op in ops]
    latencies = [lat for op in ops for lat in op["latencies"]]
    setups = [r["setup_s"] for r in reports]
    values = {
        "setup_s": median(setups),
        "run_s": median(walls),
        "submit_result_p50_s": median(latencies),
        "submit_result_p95_s": tail(latencies),
        "submissions_per_s": len(latencies) / sum(walls),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
    }
    samples = {
        "setup_s": setups,
        "run_s": walls,
        "submit_result_p50_s": [median(op["latencies"]) for op in ops],
        "submit_result_p95_s": [tail(op["latencies"]) for op in ops],
        "submissions_per_s": [len(op["latencies"]) / op["wall"] for op in ops],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reports],
    }
    return {
        "values": values,
        "samples": samples,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
    }


def per_layer(workload: str, seed: int, quick: bool, names) -> dict:
    """The traced pass: every per-layer metric, 0 for the ones reported
    under another workload."""
    report = run_child(workload, seed, "traced", 0.0, quick)
    unknown = sorted(set(report["metrics"]) - set(names))
    if unknown:
        raise RuntimeError(f"{workload}: not in BENCHMARK.json: {unknown}")
    values = {name: report["metrics"].get(name, 0.0) for name in names}
    return {"values": values, "ops": report["ops"],
            "trace_file": report["trace_file"],
            "attempted": report["attempted"], "failed": report["failed"]}


def probe_host() -> dict:
    return {"nproc": os.cpu_count(), "load1": os.getloadavg()[0],
            "spin_ops_per_s": spin(SPIN_SECONDS)}


def run_pass(spec: dict, workload: str, seed: int, seconds: float,
             trace: bool, quick: bool) -> dict:
    """One pass of one workload between two host spins."""
    section = spec["per_layer" if trace else "end_to_end"]
    before = probe_host()
    if trace:
        result = per_layer(workload, seed, quick, [m["name"] for m in section])
    else:
        result = end_to_end(workload, seed, seconds, quick)
    after = probe_host()
    values = result.pop("values")
    spins = before["spin_ops_per_s"], after["spin_ops_per_s"]
    if trace:
        values["host.spin_ops_per_s"] = sum(spins) / 2
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "correct": result["failed"] == 0,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in section
        },
        "host": {
            "before": before,
            "after": after,
            # A slow host must not read as a slow commit.
            "noisy": abs(spins[0] - spins[1]) > NOISY_SPIN_SHARE * max(spins),
        },
        **result,
    }


def contract_line(record: dict) -> str:
    """The one JSON object the benchmark contract asks for."""
    keys = ("correct", "attempted", "failed", "metrics")
    return json.dumps({key: record[key] for key in keys})


def print_pass(record: dict) -> None:
    kind = "per-layer (traced)" if record["trace"] else "end-to-end"
    noisy = "  ** NOISY HOST: spins differ by more than 10 % **" * record["host"]["noisy"]
    print(
        f"== {record['workload']}  seed {record['seed']}  {kind}: "
        f"{record['attempted']} ops attempted, {record['failed']} failed{noisy}"
    )
    samples = record.get("samples", {})
    zeros = 0
    for name, metric in record["metrics"].items():
        if record["trace"] and metric["value"] == 0:
            zeros += 1
            continue
        line = f"  {name:<40}{metric['value']:>16.6g} {metric['unit']}"
        if len(samples.get(name, ())) > 1:
            s = summary(samples[name])
            line += f"   n={s['n']} iqr={s['iqr']:.3g}"
            if "tail" in s:
                line += f" p{100 * s['tail_q']:.0f}={s['tail']:.6g}"
        print(line)
    if zeros:
        print(f"  ({zeros} metrics reported under other workloads read 0)")
    sys.stdout.flush()


def commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_ledger(spec: dict, seed: int, seconds: float, only: str | None,
               quick: bool) -> int:
    """Both passes of every workload; prints and writes the ledger."""
    ledger = {"seed": seed, "commit": commit(), "nproc": os.cpu_count(),
              "run_seconds": seconds, "workloads": {}}
    for workload in [only] if only else [w["name"] for w in spec["workloads"]]:
        passes = {}
        for section, trace in (("end_to_end", False), ("per_layer", True)):
            passes[section] = run_pass(spec, workload, seed, seconds, trace, quick)
            print_pass(passes[section])
        ledger["workloads"][workload] = passes
    path = OUT / "ledger.json"
    with open(path, "w") as fp:
        json.dump(ledger, fp, indent=1)
    print(f"ledger written to {path.relative_to(ROOT)}")
    failed = sum(
        p["failed"] for w in ledger["workloads"].values() for p in w.values()
    )
    return 1 if failed else 0


def main(argv=None) -> int:
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", choices=workloads,
                        help="run one pass of one workload (the contract mode)")
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="how long the timed ops of a workload measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 0 end-to-end, 1 per-layer pass")
    parser.add_argument("--only", choices=workloads,
                        help="ledger mode: this workload only")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="judge ledger B against ledger A")
    parser.add_argument("--quick", action="store_true",
                        help="one op and one repetition of everything "
                             "(the self-tests' reduced-op-count run)")
    args = parser.parse_args(argv)
    if args.compare:
        from benchmarks.ledger.compare import compare

        return compare(spec, *args.compare)
    OUT.mkdir(exist_ok=True)
    if args.workload is None:
        return run_ledger(spec, args.seed, args.seconds, args.only, args.quick)
    record = run_pass(spec, args.workload, args.seed, args.seconds,
                      bool(args.trace), args.quick)
    print_pass(record)
    kind = "traced" if args.trace else "timed"
    with open(OUT / f"{args.workload}-{kind}.json", "w") as fp:
        json.dump(record, fp)
    print(contract_line(record))
    return 0
