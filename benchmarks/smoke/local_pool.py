"""Smoke: the warm process pool of ``runtime="local"``, end to end.

Five process-mode ``repro.run`` calls of the 16-block merge tree in one
process: every run's outputs must hash to the ``serial`` digest, all
five must land on the same worker pids (forked once, reused), and
``shutdown_workers()`` must leave no child behind.

``python benchmarks/smoke/local_pool.py`` from anywhere; exit 0 = pass.
Run by tier-1 (``tests/test_local_warm_pool.py``) and by the
``real-exec-smoke`` CI job.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(_ROOT / "src"))

import numpy as np

import repro
from repro.analysis.mergetree import MergeTreeWorkload
from repro.data import hcci_proxy
from repro.runtimes.local import shutdown_workers

RUNS = 5
WORKERS = 2


class _Recorder:
    """Collects a workload's callbacks for :func:`repro.run`."""

    def __init__(self) -> None:
        self.callbacks: dict = {}

    def register_callback(self, cid, fn) -> None:
        self.callbacks[cid] = fn


def digest(result) -> str:
    """Content hash of every payload a run returned."""
    h = hashlib.sha256()

    def feed(obj) -> None:
        if isinstance(obj, np.ndarray):
            h.update(f"{obj.dtype.str}{obj.shape}".encode())
            h.update(np.ascontiguousarray(obj).tobytes())
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                feed(item)
        else:
            h.update(repr(obj).encode())

    for tid in sorted(result.outputs):
        for channel in sorted(result.outputs[tid]):
            h.update(f"|{tid}:{channel}|".encode())
            feed(result.outputs[tid][channel].data)
    return h.hexdigest()


def worker_pids() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


def check(ok: bool, message: str) -> None:
    if not ok:  # not ``assert``: the smoke must bite under ``python -O`` too
        raise SystemExit(f"FAIL: {message}")


def main() -> int:
    field = hcci_proxy((48, 48, 48), n_features=40, feature_sigma=2.0, seed=2018)
    wl = MergeTreeWorkload(field, 16, threshold=0.45, valence=4)
    recorder = _Recorder()
    wl.register(recorder)
    args = (wl.graph, recorder.callbacks, wl.initial_inputs())

    expected = digest(repro.run(*args, runtime="serial"))
    pids = []
    for i in range(RUNS):
        result = repro.run(
            *args, runtime="local", n_procs=WORKERS, mode="process"
        )
        check(digest(result) == expected, f"run {i}: digest != serial")
        pids.append(worker_pids())
    check(len(pids[0]) == WORKERS, f"expected {WORKERS} workers: {pids[0]}")
    check(all(p == pids[0] for p in pids), f"worker pids moved: {pids}")
    shutdown_workers()
    left = worker_pids()
    check(not left, f"children left after shutdown_workers(): {left}")
    print(f"ok: {RUNS} runs == serial on workers {sorted(pids[0])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
