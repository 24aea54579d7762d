"""Smoke: the multi-tenant ``RunService`` under an in-flight mixed load.

Three tenants storm six waves of the same eight requests at a
two-worker service (everything behind the busy workers coalesces onto
its queued twin), then a quota'd tenant floods eight distinct requests
past its bound of two.  Mid-flight the service is rendered by
``python -m repro.obs watch --once`` and scraped over HTTP from the
Prometheus endpoint; afterwards the terminal status snapshot must show
>= 50 % coalescing, exactly 6 quota rejections, every admitted request
completed, no errors and a clean SLO.  A ``live=``-armed run then
writes its snapshot beside the service's, and one scrape of the shared
directory must hold no series twice and no family carrying both a
``run=`` and a ``service=`` label.  Last, a deliberately breached
objective must trip the SLO gate.

``python benchmarks/smoke/service_mix.py [--quick] [--out DIR]`` from
anywhere; exit 0 = pass.  ``--quick`` shrinks the sleeps (~2 s instead
of ~12 s); ``--out`` keeps the status snapshots, ``watch.txt``,
``metrics.txt`` and ``mixed_metrics.txt`` there.  Run by tier-1
(``tests/test_service_smoke.py``) and by the ``service-smoke`` CI job.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import urllib.request
from collections import defaultdict
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(_ROOT / "src"))

import repro
from repro.core.payload import Payload
from repro.graphs import Reduction
from repro.obs.live import LiveMetricsServer, read_status
from repro.service import (
    AdmissionError,
    RunRequest,
    RunService,
    service_status_path,
)

WAVES = 6
SPECS = 8
TENANTS = ("alice", "bob", "carol")
GREEDY_QUOTA = 2


def check(ok: bool, message: str) -> None:
    if not ok:  # not ``assert``: the smoke must bite under ``python -O`` too
        raise SystemExit(f"FAIL: {message}")


def add(ins, tid):
    return [Payload(sum(p.data for p in ins))]


def exposition_defects(text: str) -> list[str]:
    """Series that appear twice, and families that mix a run's samples
    with a service's, in one Prometheus exposition."""
    defects, seen, owners, family = [], set(), defaultdict(set), ""
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            family = line.split()[2]
        elif line and not line.startswith("#"):
            series = line.rsplit(" ", 1)[0]
            if series in seen:
                defects.append(f"series twice: {series}")
            seen.add(series)
            owners[family].update(re.findall(r'[{,](run|service)="', series))
    defects += [
        f"family shared by a run and a service: {f}"
        for f, kinds in owners.items() if len(kinds) > 1
    ]
    return defects


def scrape(status_dir: str, until: str, timeout: float = 30.0) -> str:
    """GET /metrics until the exposition mentions ``until`` (the first
    snapshot is written before any submission)."""
    server = LiveMetricsServer(status_dir)
    server.start()
    try:
        deadline = time.monotonic() + timeout
        while True:
            with urllib.request.urlopen(server.url, timeout=10) as resp:
                text = resp.read().decode()
            if until in text:
                return text
            check(time.monotonic() < deadline, f"scrape never showed {until}")
            time.sleep(0.02)
    finally:
        server.stop()


def storm(out: Path, leaf_sleep: float, wave_pause: float) -> dict:
    """The mixed-tenant workload; returns the terminal status snapshot."""
    g = Reduction(16, 4)

    def leaf(ins, tid):
        time.sleep(leaf_sleep)  # real work: 16 leaves per serial run
        return [ins[0]]

    callbacks = {g.LEAF: leaf, g.REDUCE: add, g.ROOT: add}

    def mk(scale, tenant):
        inputs = {
            t: Payload((i + 1) * scale) for i, t in enumerate(g.leaf_ids())
        }
        return RunRequest(g, callbacks, inputs, runtime="serial", tenant=tenant)

    status_dir = str(out / "service-status")
    shutil.rmtree(status_dir, ignore_errors=True)  # a rerun's stale snapshots
    svc = RunService(
        workers=2, max_queue=128, quotas={"greedy": GREEDY_QUOTA},
        slo={"max_errors": 0}, name="ci-service",
        status_dir=status_dir, status_interval=wave_pause / 5,
    )
    handles, rejected = [], 0
    # Less than one run per wave: the two workers are always busy, so
    # each later wave finds most of its eight specs queued or running.
    for wave in range(WAVES):
        for k in range(SPECS):
            handles.append(svc.submit(mk(k + 1, TENANTS[(wave + k) % 3])))
        if wave == 0:  # mid-flight: the real CLI verb, and a real scrape
            watch = subprocess.Popen(
                [sys.executable, "-m", "repro.obs", "watch", status_dir,
                 "--once", "--timeout", "30"],
                stdout=subprocess.PIPE, text=True,
                env={**os.environ, "PYTHONPATH": str(_ROOT / "src")},
            )
            metrics = scrape(status_dir, until='tenant="alice"')
        time.sleep(wave_pause)
    # The greedy tenant floods distinct requests past its quota while
    # its first two are still outstanding.
    for k in range(SPECS):
        try:
            handles.append(svc.submit(mk(100 + k, "greedy")))
        except AdmissionError as err:
            check(err.reason == "tenant-quota", f"rejected for {err.reason}")
            rejected += 1
    check(rejected == SPECS - GREEDY_QUOTA, f"{rejected} quota rejections")
    for h in handles:
        h.result(300)
    svc.close(wait=True)
    # One live-armed run beside the service: a scrape of the shared
    # directory must keep the two apart.
    inputs = {t: Payload(i + 1) for i, t in enumerate(g.leaf_ids())}
    repro.run(g, callbacks, inputs, runtime="mpi", n_procs=4,
              telemetry=True, live=status_dir)
    mixed = scrape(status_dir, until="repro_run_info")

    frame = watch.communicate(timeout=60)[0]
    (out / "watch.txt").write_text(frame)
    (out / "metrics.txt").write_text(metrics)
    (out / "mixed_metrics.txt").write_text(mixed)
    check(watch.returncode == 0, f"obs watch exited {watch.returncode}")
    for needle in ("ci-service", "tenants:"):
        check(needle in frame, f"watch frame lacks {needle!r}")
    for pattern in (
        "# TYPE repro_service_queue_depth gauge",
        "repro_service_submitted_total",
        'repro_service_tenant_queued{.*tenant="alice"',
    ):
        check(re.search(pattern, metrics), f"scrape lacks {pattern!r}")
    check("repro_service_info" in mixed, "mixed scrape lacks the service")
    defects = exposition_defects(mixed)
    check(not defects, "mixed scrape: " + "; ".join(defects[:5]))
    return read_status(service_status_path(status_dir))


def slo_gate_trips() -> str:
    g = Reduction(16, 4)
    cb = {g.LEAF: lambda ins, tid: [ins[0]], g.REDUCE: add, g.ROOT: add}
    inputs = {t: Payload(i + 1) for i, t in enumerate(g.leaf_ids())}
    with RunService(workers=1, slo={"max_runs_executed": 0}) as svc:
        svc.submit(RunRequest(g, cb, inputs, runtime="serial")).result(60)
        violations = svc.slo_violations()
        breaches = svc.snapshot()["metrics"]["counters"]["slo_breaches"]
    check(
        bool(violations) and breaches == 1,
        f"a breached SLO went unflagged: {violations!r} / {breaches}",
    )
    return violations[0]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="repro-service-smoke-") as tmp:
        out = args.out or Path(tmp)
        out.mkdir(parents=True, exist_ok=True)
        # (seconds per leaf task, seconds between waves)
        doc = storm(out, *((0.008, 0.08) if args.quick else (0.08, 1.0)))
    check(doc["kind"] == "service" and doc["state"] == "closed", "not closed")
    c = doc["metrics"]["counters"]
    submitted = WAVES * SPECS + SPECS
    check(c["submitted"] == submitted, f"submitted {c['submitted']}")
    # >= 50 % of the admitted storm coalesced onto in-flight twins.
    check(c["dedup_hits"] >= WAVES * SPECS // 2, f"dedup {c['dedup_hits']}")
    check(
        c["rejected_quota"] == SPECS - GREEDY_QUOTA,
        f"quota rejections {c['rejected_quota']}",
    )
    check(
        c["completed"] == c["submitted"] - c["rejected"],
        f"completed {c['completed']} of {c['submitted']}",
    )
    check(c["errors"] == 0 and c["slo_breaches"] == 0, "errors or breaches")
    violation = slo_gate_trips()
    print(
        f"ok: coalesced {c['dedup_hits']} of {c['submitted']} submissions, "
        f"{c['runs_executed']} executed, {c['rejected']} rejected; "
        f"SLO gate tripped on {violation!r}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
