#!/usr/bin/env python3
"""Share one run service across tenants: submit, coalesce, enforce.

``repro.run`` executes one graph for one caller.  This example stands up
the multi-tenant layer on top of it — :class:`repro.service.RunService` —
and walks the service contract end to end:

* ``submit(RunRequest) -> RunHandle``: non-blocking submission with
  ``.status`` / ``.result()`` / ``.cancel()``;
* request coalescing: structurally identical submissions from
  *different* tenants share a single execution (the counters prove it),
  and the shared result is bit-identical to a plain ``repro.run``;
* per-tenant quotas: the greedy tenant is rejected with a reason while
  everyone else keeps flowing;
* observability: the same snapshot document that
  ``python -m repro.obs watch`` renders and ``serve`` exposes to
  Prometheus.

To make the queueing visible (and the counters deterministic), both
worker slots are first occupied by requests that block on an event —
everything submitted behind them coalesces or queues instead of racing
straight onto a free worker.

Run:  python examples/run_service.py
"""

from __future__ import annotations

import threading
import time

import repro
from repro.core.payload import Payload
from repro.graphs import DataParallel, Reduction
from repro.obs.live import prometheus_text
from repro.obs.live.watch import render_service_status
from repro.service import AdmissionError, RunRequest, RunService

LEAVES, VALENCE, N_PROCS = 16, 4, 4
WORKERS = 2


def make_spec(scale: int = 1):
    g = Reduction(LEAVES, VALENCE)
    add = lambda ins, tid: [Payload(sum(p.data for p in ins))]
    callbacks = {g.LEAF: lambda ins, tid: [ins[0]], g.REDUCE: add, g.ROOT: add}
    inputs = {
        t: Payload((i + 1) * scale) for i, t in enumerate(g.leaf_ids())
    }
    return g, callbacks, inputs


def gate_request(gate: threading.Event, tag: int) -> RunRequest:
    """A request that holds its worker until ``gate`` is set.

    Distinct ``tag`` payloads keep the two blockers from coalescing
    with each other.
    """
    g = DataParallel(1)
    callbacks = {g.WORK: lambda ins, tid: (gate.wait(30), [ins[0]])[1]}
    return RunRequest(g, callbacks, {0: Payload(tag)}, runtime="serial",
                      tenant="warmup")


def wait_running(*handles) -> None:
    deadline = time.monotonic() + 10
    for h in handles:
        while h.status != "running":
            assert time.monotonic() < deadline, f"stuck {h.status!r}"
            time.sleep(0.002)


def main() -> None:
    g, callbacks, inputs = make_spec()
    baseline = repro.run(g, callbacks, inputs, runtime="mpi", n_procs=N_PROCS)

    gate = threading.Event()
    with RunService(workers=WORKERS, quotas={"greedy": 2}) as svc:
        blockers = [svc.submit(gate_request(gate, tag=w))
                    for w in range(WORKERS)]
        wait_running(*blockers)

        # Three tenants submit the *same* analysis.  The request key is
        # structural (graph + callbacks + inputs + runtime shape), so
        # the service queues it once and fans the result back.
        handles = [
            svc.submit(RunRequest(g, callbacks, inputs, runtime="mpi",
                                  n_procs=N_PROCS, tenant=tenant))
            for tenant in ("alice", "bob", "carol")
        ]
        assert [h.dedup for h in handles] == [False, True, True]

        # The greedy tenant floods distinct requests past its quota of
        # two outstanding; admission rejects with a machine-readable
        # reason instead of queueing unboundedly.
        rejections = []
        for k in range(5):
            gk, cbk, ink = make_spec(scale=10 + k)
            try:
                svc.submit(RunRequest(gk, cbk, ink, runtime="mpi",
                                      n_procs=N_PROCS, tenant="greedy"))
            except AdmissionError as err:
                rejections.append(err.reason)

        gate.set()  # release the workers; the queue drains
        results = [h.result(timeout=30) for h in handles]
        svc.close(wait=True)
        snap = svc.snapshot()

    assert all(r is results[0] for r in results), "waiters share one result"
    assert results[0].makespan == baseline.makespan
    assert (results[0].output(g.root_id).data
            == baseline.output(g.root_id).data)
    print(f"3 tenants submitted the same request -> 1 shared execution, "
          f"{snap['metrics']['counters']['dedup_hits']} coalesced "
          f"(root={results[0].output(g.root_id).data}, "
          f"makespan={results[0].makespan:.4f}s, "
          f"bit-identical to repro.run)")

    assert rejections == ["tenant-quota"] * 3
    print(f"greedy tenant: 2 of 5 submissions admitted, "
          f"{len(rejections)} rejected with reason 'tenant-quota'")

    print("\nwhat `python -m repro.obs watch` shows for this service:")
    for line in render_service_status(snap).splitlines():
        print(f"  {line}")

    print("\nwhat `python -m repro.obs serve` exposes (excerpt):")
    for line in prometheus_text([snap]).splitlines():
        if line.startswith(("repro_service_submitted", "repro_service_dedup",
                            "repro_service_rejected_quota",
                            "repro_service_tenant_completed")):
            print(f"  {line}")


if __name__ == "__main__":
    main()
