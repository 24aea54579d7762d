"""The process pool's worker lifetime and what crosses its pipes.

A process-mode run pickles its callback table once on the calling
thread, installs it once per worker, and hands its workers back to a
process-wide spare that the next run reuses.  These tests pin the
contract around that: reuse is invisible in the outputs, a new run's
functions replace the old ones, and every failure path — a dead worker,
a stalled one, a worker forked before the callback's module existed —
ends in a typed error or a re-fork, never in a poisoned spare.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.core.errors import ControllerError
from repro.core.payload import Payload
from repro.graphs import Reduction
from repro.obs.live import find_status, read_status
from repro.runtimes import LocalPoolController
from repro.runtimes.local import shutdown_workers
from tests.golden_workloads import _leaf, _reduce

pytestmark = pytest.mark.parallel

ROOT = Path(__file__).resolve().parents[1]
G = Reduction(16, 2)
INPUTS = {tid: Payload([float(i + 1)]) for i, tid in enumerate(G.leaf_ids())}


def _reduce_max(ins, tid):
    return [Payload([max(p.data[0] for p in ins)])]


def _pid_leaf(ins, tid):
    return [Payload([os.getpid()])]


def _pids(ins, tid):
    return [Payload(sorted({pid for p in ins for pid in p.data}))]


def _die(ins, tid):
    os._exit(3)


def _hang(ins, tid):
    time.sleep(30.0)
    return [Payload([0.0])]


def _refuse_to_load():
    raise RuntimeError("this callback does not unpickle")


class _PicklesButDoesNotLoad:
    def __reduce__(self):
        return (_refuse_to_load, ())

    def __call__(self, ins, tid):
        return [Payload(list(ins[0].data))]


def callbacks(reduce=_reduce, leaf=_leaf) -> dict:
    return {G.LEAF: leaf, G.REDUCE: reduce, G.ROOT: reduce}


def run(cbs=None, runtime="local", **options):
    if runtime == "local":
        options = {"n_procs": 2, "mode": "process", **options}
    return repro.run(G, cbs or callbacks(), INPUTS, runtime=runtime, **options)


def root(result):
    return result.output(G.root_id).data


def worker_pids() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


@pytest.fixture(autouse=True)
def no_workers_before_or_after():
    shutdown_workers()
    assert not worker_pids()
    yield
    shutdown_workers()
    assert not worker_pids()


def test_consecutive_runs_reuse_the_same_workers():
    expected = root(run(runtime="serial"))
    first = run()
    pids = worker_pids()
    second = run()
    assert len(pids) == 2
    assert worker_pids() == pids
    assert root(first) == root(second) == expected


def test_a_new_run_installs_its_own_functions_under_the_same_ids():
    summed = run()
    pids = worker_pids()
    maxed = run(callbacks(reduce=_reduce_max))
    assert worker_pids() == pids  # same workers, new table
    assert root(maxed) == root(run(callbacks(reduce=_reduce_max), "serial"))
    assert root(maxed) != root(summed)
    assert root(run()) == root(summed)


def test_unpicklable_callback_is_named_before_any_worker_is_touched():
    unpicklable = lambda ins, tid: [Payload(list(ins[0].data))]  # noqa: E731
    with pytest.raises(ControllerError, match=rf"\[{G.LEAF}\].*picklable"):
        run(callbacks(leaf=unpicklable))
    assert not worker_pids()  # raised on the calling thread: nothing forked


def test_a_worker_dying_mid_run_is_an_error_and_the_next_run_is_fresh():
    run()  # the failing run borrows warm workers
    dead = worker_pids()
    with pytest.raises(ControllerError, match="worker pool broke"):
        run(callbacks(reduce=_die))
    assert not worker_pids()  # killed, never handed back
    assert root(run()) == root(run(runtime="serial"))
    assert len(worker_pids()) == 2 and not worker_pids() & dead


def test_an_idle_timeout_leaves_no_spare_behind():
    c = LocalPoolController(2, mode="process", idle_timeout=0.3)
    c.initialize(G)
    for cid, fn in callbacks(reduce=_hang).items():
        c.register_callback(cid, fn)
    t0 = time.perf_counter()
    with pytest.raises(ControllerError, match="no progress"):
        c.run(INPUTS)
    assert time.perf_counter() - t0 < 10.0
    assert not worker_pids()


def test_a_live_armed_run_borrows_the_warm_workers(tmp_path):
    run()
    pids = worker_pids()
    result = run(callbacks(reduce=_pids, leaf=_pid_leaf), live=str(tmp_path))
    assert set(root(result)) <= pids  # its tasks ran on the warm workers...
    assert len(pids) == 2 and worker_pids() == pids  # ...now one spare set
    assert read_status(find_status(str(tmp_path))[0])["state"] == "finished"


def test_callbacks_from_a_module_written_after_the_fork(tmp_path, monkeypatch):
    run()
    stale = worker_pids()
    (tmp_path / "late_callbacks.py").write_text(
        "from repro.core.payload import Payload\n"
        "def leaf(ins, tid):\n"
        "    return [Payload([ins[0].data[0] * 3.0])]\n"
        "def reduce(ins, tid):\n"
        "    return [Payload([sum(p.data[0] for p in ins)])]\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.delitem(sys.modules, "late_callbacks", raising=False)
    import late_callbacks as late

    # The warm workers' sys.path predates tmp_path: they cannot unpickle
    # the table, so the run re-forks and installs once more.
    cbs = callbacks(reduce=late.reduce, leaf=late.leaf)
    assert root(run(cbs)) == root(run(cbs, "serial"))
    assert len(worker_pids()) == 2 and not worker_pids() & stale


def test_a_table_fresh_workers_cannot_load_is_the_real_error():
    run()  # warm workers fail first, then the fresh ones: both reaped
    with pytest.raises(ControllerError, match="could not install"):
        run(callbacks(leaf=_PicklesButDoesNotLoad()))
    assert not worker_pids()
    assert root(run()) == root(run(runtime="serial"))


def test_concurrent_runs_are_correct_and_leave_at_most_one_spare():
    expected = {
        _reduce: root(run(runtime="serial")),
        _reduce_max: root(run(callbacks(reduce=_reduce_max), "serial")),
    }
    wrong: list = []

    def client(reduce) -> None:
        for _ in range(3):
            got = root(run(callbacks(reduce=reduce)))
            if got != expected[reduce]:
                wrong.append((reduce.__name__, got))

    # More clients than cores, and a short switch interval, so borrows
    # and hand-backs of the one spare interleave.
    threads = [
        threading.Thread(target=client, args=(fn,))
        for fn in (_reduce, _reduce_max, _reduce, _reduce_max)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not wrong
    assert len(worker_pids()) <= 2  # one spare set of two slots, at most


def test_shutdown_workers_reaps_every_child():
    run()
    run(n_procs=1)  # a second spare set, for another slot count
    assert len(worker_pids()) == 3
    shutdown_workers()
    assert not multiprocessing.active_children()


def test_the_ci_smoke_script_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "smoke" / "local_pool.py")],
        capture_output=True, text=True, timeout=100,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.startswith("ok: 5 runs == serial")
