"""RunService under concurrency: storms, dedup fan-back, quotas,
fairness, and cancellation.

The acceptance bar from the service design: a mixed-tenant storm with a
majority of duplicate submissions must return bit-identical results to
a sequential ``repro.run`` loop, execute each distinct request once
(counters prove it), and never starve the quota'd tenant.
"""

import threading
import time

import pytest

import repro
from repro.core.payload import Payload
from repro.graphs import DataParallel, Reduction
from repro.service import (
    AdmissionError,
    CancelledError,
    RunRequest,
    RunService,
    ServiceClosed,
)


def reduction_spec(scale=1):
    g = Reduction(16, 4)
    add = lambda ins, tid: [Payload(sum(p.data for p in ins))]
    callbacks = {g.LEAF: lambda ins, tid: [ins[0]], g.REDUCE: add, g.ROOT: add}
    inputs = {t: Payload((i + 1) * scale) for i, t in enumerate(g.leaf_ids())}
    return g, callbacks, inputs


def flat(result):
    return {
        (t, ch): p.data
        for t, by_ch in result.outputs.items()
        for ch, p in by_ch.items()
    }


def wait_running(*handles, timeout=10.0):
    """Block until every handle's request is on a worker slot."""
    deadline = time.monotonic() + timeout
    for h in handles:
        while h.status != "running":
            if time.monotonic() > deadline:
                raise AssertionError(f"handle stuck in {h.status!r}")
            time.sleep(0.002)


def gate_spec(event, tag=0):
    """A serial-runtime request that blocks until ``event`` is set.

    Distinct ``tag`` values split the dedup key, so several gates can
    occupy several workers simultaneously.
    """
    g = DataParallel(1)
    callbacks = {g.WORK: lambda ins, tid: (event.wait(10), [ins[0]])[1]}
    return RunRequest(g, callbacks, {0: Payload(tag)}, runtime="serial")


class TestSubmitStorms:
    def test_threaded_storm_bit_identical_to_serial_loop(self):
        n_threads, per_thread = 8, 5
        specs = [reduction_spec(scale=k + 1) for k in range(n_threads)]
        baseline = [
            repro.run(g, cb, ins, runtime="mpi", n_procs=4)
            for g, cb, ins in specs
        ]
        with RunService(workers=4) as svc:
            results = [[None] * per_thread for _ in range(n_threads)]

            def storm(i):
                g, cb, ins = specs[i]
                hs = [
                    svc.submit(RunRequest(g, cb, ins, runtime="mpi",
                                          n_procs=4, tenant=f"t{i}"))
                    for _ in range(per_thread)
                ]
                results[i] = [h.result(30) for h in hs]

            threads = [
                threading.Thread(target=storm, args=(i,))
                for i in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        for i, row in enumerate(results):
            for r in row:
                assert flat(r) == flat(baseline[i])
                assert r.makespan == baseline[i].makespan

    def test_submit_after_close_raises(self):
        g, cb, ins = reduction_spec()
        svc = RunService(workers=1)
        svc.close()
        with pytest.raises(ServiceClosed):
            svc.submit(RunRequest(g, cb, ins, runtime="serial"))


class TestDedupFanBack:
    def test_queued_twins_execute_once_and_share_the_result_object(self):
        gate = threading.Event()
        g, cb, ins = reduction_spec()
        with RunService(workers=1) as svc:
            blocker = svc.submit(gate_spec(gate))
            wait_running(blocker)
            handles = [
                svc.submit(RunRequest(g, cb, ins, runtime="mpi", n_procs=4,
                                      tenant=f"tenant{i}"))
                for i in range(6)
            ]
            assert [h.dedup for h in handles] == [False] + [True] * 5
            gate.set()
            results = [h.result(30) for h in handles]
            blocker.result(30)
            snap = svc.snapshot()
            counters = snap["metrics"]["counters"]
        first = results[0]
        assert all(r is first for r in results)  # same object: bit-identical
        assert counters["dedup_hits"] == 5
        assert counters["runs_executed"] == 2  # the blocker + one shared run
        assert counters["completed"] == 7

    def test_callers_blocked_before_resolution_wake_with_the_result(self):
        """A resolved handle swaps its own event for a shared set one;
        callers already blocked on the old event still wake."""
        from repro.service import handle as handle_module

        gate = threading.Event()
        g, cb, ins = reduction_spec()
        with RunService(workers=1) as svc:
            blocker = svc.submit(gate_spec(gate))
            wait_running(blocker)
            h = svc.submit(RunRequest(g, cb, ins, runtime="mpi", n_procs=4))
            own = h._event
            got = []
            threads = [
                threading.Thread(target=lambda: got.append(h.result(30)))
                for _ in range(4)
            ]
            for t in threads:
                t.start()
            deadline = time.monotonic() + 10
            while len(own._cond._waiters) < 4:  # all four are blocked
                assert time.monotonic() < deadline
                time.sleep(0.002)
            assert not h.done()
            gate.set()
            for t in threads:
                t.join(30)
            blocker.result(30)
        assert len(got) == 4 and all(r is got[0] for r in got)
        assert h._event is handle_module._RESOLVED and own.is_set()
        assert h.done() and h.wait(0) and h.result(0) is got[0]

    def test_followers_resolve_even_when_the_run_errors(self):
        g2 = Reduction(16, 4)

        def boom(ins_, tid):
            raise RuntimeError("callback exploded")

        bad = {g2.LEAF: boom, g2.REDUCE: boom, g2.ROOT: boom}
        with RunService(workers=1) as svc:
            gate = threading.Event()
            blocker = svc.submit(gate_spec(gate))
            wait_running(blocker)
            hs = [
                svc.submit(RunRequest(g2, bad, {t: Payload(1) for t in
                                                g2.leaf_ids()},
                                      runtime="mpi", n_procs=4))
                for _ in range(3)
            ]
            gate.set()
            blocker.result(30)
            for h in hs:
                with pytest.raises(RuntimeError, match="callback exploded"):
                    h.result(30)
            assert [h.status for h in hs] == ["error"] * 3
            assert svc.snapshot()["metrics"]["counters"]["errors"] == 3


class TestQuotasAndBackpressure:
    def test_tenant_quota_rejects_with_reason(self):
        gate = threading.Event()
        g, cb, ins = reduction_spec()
        svc = RunService(workers=1, quotas={"greedy": 2})
        try:
            blocker = svc.submit(gate_spec(gate))
            wait_running(blocker)
            mk = lambda k: RunRequest(g, cb,
                                      {t: Payload(i + 1 + 100 * k)
                                       for i, t in enumerate(g.leaf_ids())},
                                      runtime="mpi", n_procs=4,
                                      tenant="greedy")
            h1, h2 = svc.submit(mk(1)), svc.submit(mk(2))
            with pytest.raises(AdmissionError) as err:
                svc.submit(mk(3))
            assert err.value.reason == "tenant-quota"
            # an unquota'd tenant is unaffected
            other = svc.submit(RunRequest(g, cb, ins, runtime="mpi",
                                          n_procs=4, tenant="polite"))
            gate.set()
            for h in (blocker, h1, h2, other):
                h.result(30)
            snap = svc.snapshot()
            counters = snap["metrics"]["counters"]
            assert counters["rejected"] == 1
            assert counters["rejected_quota"] == 1
            assert snap["tenants"]["greedy"]["rejected"] == 1
        finally:
            svc.close()

    def test_full_queue_rejects_with_reason(self):
        gate = threading.Event()
        g, cb, _ = reduction_spec()
        svc = RunService(workers=1, max_queue=2)
        try:
            blocker = svc.submit(gate_spec(gate))
            wait_running(blocker)
            mk = lambda k: RunRequest(g, cb,
                                      {t: Payload(i + 1 + 100 * k)
                                       for i, t in enumerate(g.leaf_ids())},
                                      runtime="mpi", n_procs=4)
            queued = [svc.submit(mk(1)), svc.submit(mk(2))]
            with pytest.raises(AdmissionError) as err:
                svc.submit(mk(3))
            assert err.value.reason == "queue-full"
            # a duplicate of already-queued work still coalesces: dedup
            # needs no queue slot
            twin = svc.submit(mk(1))
            assert twin.dedup
            gate.set()
            for h in [blocker, twin] + queued:
                h.result(30)
        finally:
            svc.close()

    def test_round_robin_never_starves_the_small_tenant(self):
        gate = threading.Event()
        g, cb, _ = reduction_spec()
        svc = RunService(workers=1)
        try:
            blocker = svc.submit(gate_spec(gate))
            wait_running(blocker)
            flood = [
                svc.submit(RunRequest(
                    g, cb,
                    {t: Payload(i + 1 + 1000 * k)
                     for i, t in enumerate(g.leaf_ids())},
                    runtime="mpi", n_procs=4, tenant="flood"))
                for k in range(12)
            ]
            small = svc.submit(RunRequest(
                g, cb, {t: Payload(i + 1)
                        for i, t in enumerate(g.leaf_ids())},
                runtime="mpi", n_procs=4, tenant="small"))
            gate.set()
            small.result(30)
            for h in flood:
                h.result(30)
            blocker.result(30)
        finally:
            svc.close()
        # Round-robin dispatch: the small tenant's single request ran
        # after at most a couple of flood requests, not after all 12
        # (completion order is the handles' monotonic finish stamps).
        floods_before_small = sum(
            1 for h in flood if h.finished_ts < small.finished_ts
        )
        assert floods_before_small <= 2


class TestCancellation:
    def test_cancel_queued_vs_running(self):
        gate = threading.Event()
        g, cb, ins = reduction_spec()
        svc = RunService(workers=1)
        try:
            running = svc.submit(gate_spec(gate))
            wait_running(running)
            queued = svc.submit(RunRequest(g, cb, ins, runtime="mpi",
                                           n_procs=4))
            assert running.status == "running"
            assert not running.cancel()  # running work is never interrupted
            assert queued.cancel()
            assert queued.status == "cancelled"
            with pytest.raises(CancelledError):
                queued.result(1)
            gate.set()
            running.result(30)
            snap = svc.snapshot()
            counters = snap["metrics"]["counters"]
            assert counters["cancelled"] == 1
            assert snap["queue_depth"] == 0
            assert counters["runs_executed"] == 1  # the cancelled one never ran
        finally:
            svc.close()

    def test_cancelling_one_follower_keeps_the_twin_running(self):
        gate = threading.Event()
        g, cb, ins = reduction_spec()
        svc = RunService(workers=1)
        try:
            blocker = svc.submit(gate_spec(gate))
            wait_running(blocker)
            leader = svc.submit(RunRequest(g, cb, ins, runtime="mpi",
                                           n_procs=4))
            follower = svc.submit(RunRequest(g, cb, ins, runtime="mpi",
                                             n_procs=4))
            assert follower.dedup
            assert follower.cancel()
            gate.set()
            result = leader.result(30)
            blocker.result(30)
            assert flat(result)
            with pytest.raises(CancelledError):
                follower.result(1)
        finally:
            svc.close()


class TestMixedTenantStormAcceptance:
    """The PR's acceptance scenario: 200 requests, >=50% duplicates."""

    def test_200_request_storm(self):
        n_unique, n_total, workers = 8, 200, 4
        specs = [reduction_spec(scale=k + 1) for k in range(n_unique)]
        baseline = [
            repro.run(g, cb, ins, runtime="mpi", n_procs=4)
            for g, cb, ins in specs
        ]
        tenants = ["alice", "bob", "carol", "quotad"]
        gate = threading.Event()
        svc = RunService(workers=workers, quotas={"quotad": 60})
        try:
            # Occupy every worker so the storm coalesces in the queue.
            blockers = [svc.submit(gate_spec(gate, tag=w))
                        for w in range(workers)]
            wait_running(*blockers)
            handles = []
            for j in range(n_total):
                g, cb, ins = specs[j % n_unique]
                handles.append(svc.submit(RunRequest(
                    g, cb, ins, runtime="mpi", n_procs=4,
                    tenant=tenants[j % len(tenants)],
                )))
            gate.set()
            results = [h.result(60) for h in handles]
            for b in blockers:
                b.result(60)
            snap = svc.snapshot()
            counters = snap["metrics"]["counters"]
        finally:
            svc.close()

        # Bit-identical to the sequential repro.run loop.
        for j, r in enumerate(results):
            ref = baseline[j % n_unique]
            assert flat(r) == flat(ref)
            assert r.makespan == ref.makespan
            assert dict(r.stats.category_time) == dict(
                ref.stats.category_time
            )
        # >=50% duplicates, each distinct request executed exactly once.
        assert counters["dedup_hits"] == n_total - n_unique >= n_total / 2
        assert counters["runs_executed"] == n_unique + workers
        assert counters["completed"] == n_total + workers
        # The quota'd tenant was never starved: everything it submitted
        # completed, nothing was rejected.
        quotad = snap["tenants"]["quotad"]
        assert quotad.get("rejected", 0) == 0
        assert quotad["completed"] == n_total // len(tenants)
