"""One workload in one fresh process: ``python -m benchmarks.ledger.child CONFIG``.

``CONFIG`` is a JSON object ``{workload, seed, mode, seconds, quick, out, tmp}``.
Both modes share one set-up path (import ``repro``, synthesize the data,
build the workload, run and verify the cold op), which is ``setup_s``:

* ``timed`` goes on with warm-up ops and then timed ops, tracing off,
  for ``seconds`` — the end-to-end numbers;
* ``traced`` runs a few untraced ops for the base ``run_s``, then the
  traced ops, one ``cProfile``d op and the workload's layer probes — the
  per-layer numbers — and writes ``trace-<workload>.json``.

The report is printed as the last line of stdout.
"""

import time

T0 = time.perf_counter()  # the set-up clock starts before any program import

import json
import os
import resource
import sys
import traceback

from benchmarks.ledger.stats import median
from benchmarks.ledger.tracer import Tracer, layer_budget, profiled


class Session:
    """The set-up path and the op loop's bookkeeping."""

    def __init__(self, config: dict) -> None:
        self.tracer = tracer = Tracer(enabled=config["mode"] == "traced")
        with tracer.span("import", "import"):
            from benchmarks.ledger.workloads import WORKLOADS
        self.wl = wl = WORKLOADS[config["workload"]](
            config["seed"], tracer, config["tmp"], config["quick"]
        )
        self.attempted = self.failed = 0
        with tracer.span("synthesize", "data"):
            wl.synthesize()
        with tracer.span("build", "analysis"):
            wl.build()
        t0 = time.perf_counter()
        wl.reference()
        reference_s = time.perf_counter() - t0
        _, self.cold = self.op("cold")
        # The reference is harness work, not the program's set-up.
        self.setup_s = time.perf_counter() - T0 - reference_s

    def op(self, label: str):
        """Run and verify one op; an op that raises or fails
        verification counts as failed and the loop goes on."""
        self.attempted += 1
        op, ok = None, False
        with self.tracer.op(label) as root:
            try:
                op = self.wl.op()
                with self.tracer.span("verify", "bench"):
                    ok = self.wl.verify(op)
            except Exception:
                traceback.print_exc()
        self.failed += not ok
        return root, op

    def counts(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed}

    def close(self) -> None:
        self.wl.close()


def timed(session: Session, seconds: float, quick: bool) -> dict:
    wl = session.wl
    for _ in range(0 if quick else wl.warmup):
        session.op("warmup")
    ops, n, start = [], 0, time.perf_counter()
    while True:
        _, op = session.op("timed")
        n += 1
        if op is not None:
            ops.append(op)
        elapsed = time.perf_counter() - start
        # Start another op only while at least half of it fits.
        if elapsed + 0.5 * elapsed / n >= seconds:
            break
    usage = resource.getrusage
    return {
        "setup_s": session.setup_s,
        "ops": [{"wall": op.wall, "latencies": op.latencies} for op in ops],
        "peak_rss_mb": (
            usage(resource.RUSAGE_SELF).ru_maxrss
            + usage(resource.RUSAGE_CHILDREN).ru_maxrss
        ) / 1024.0,
        **session.counts(),
    }


def traced(session: Session, out: str, quick: bool) -> dict:
    wl, tracer = session.wl, session.tracer
    tracer.enabled = False
    run_s = median(session.op("base")[1].wall for _ in range(wl.reps()))
    tracer.enabled = True
    ops = [session.op("traced") for _ in range(1 if quick else wl.traced_ops)]
    tracer.enabled = False
    metrics = wl.layer_metrics(run_s, ops)
    metrics["data.synth_s"] = tracer.total("synthesize")
    metrics["bench.trace_overhead_ratio"] = (
        median(root[6] - root[5] for root, _ in ops) / run_s
    )
    with profiled(threads=wl.profile_threads) as profiles:
        wl.profiled_ops()
    for layer, share in layer_budget(profiles).items():
        metrics[f"{layer}.self_frac"] = share
    path = os.path.join(out, f"trace-{wl.name}.json")
    return {
        "metrics": metrics,
        "trace_file": path,
        "ops": tracer.dump(path, wl.name),
        **session.counts(),
    }


def main(argv) -> int:
    config = json.loads(argv[0])
    session = Session(config)
    try:
        if config["mode"] == "timed":
            report = timed(session, config["seconds"], config["quick"])
        else:
            report = traced(session, config["out"], config["quick"])
    finally:
        session.close()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
