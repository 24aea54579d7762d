"""A state machine over :class:`RunService`: what docs/service.md states in
prose, checked after every step of random submit / duplicate-submit /
cancel / drain / close sequences across tenants.

The service's two workers are held by gate requests while the machine
submits and cancels, so every request waits in the queue and the model
knows exactly which submissions coalesce, which are refused at the
quota and which cancels succeed.  ``drain`` opens the gate and checks
every outcome; ``close`` does the same through ``close()``.

Invariants:

* every handle resolves exactly once, to the outcome its request asked
  for (a root sum, or the raising callback's error);
* coalesced waiters see one outcome: the *same* read-only result, or the
  same exception;
* a write to any result raises and leaves every other waiter's result
  unchanged;
* tenant outstanding counts never go negative;
* a resolved handle pins no in-flight key;
* ``close()`` leaves no worker thread alive.
"""

from __future__ import annotations

import threading
import time
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.payload import Payload
from repro.graphs import DataParallel, Reduction
from repro.service import AdmissionError, RunRequest, RunService

TENANTS = ("alice", "bob", "carol")
QUOTA = 3
WORKERS = 2
WAIT = 30.0

_G = Reduction(16, 4)
_BASE = sum(range(1, 17))


class Boom(RuntimeError):
    pass


def _leaf(ins, tid):
    return [ins[0]]


def _add(ins, tid):
    return [Payload(sum(p.data for p in ins))]


def _boom(ins, tid):
    raise Boom(f"root of scale {ins[0].data}")


_FINE = {_G.LEAF: _leaf, _G.REDUCE: _add, _G.ROOT: _add}
_RAISING = {_G.LEAF: _leaf, _G.REDUCE: _add, _G.ROOT: _boom}


def _request(tenant, scale, raising):
    inputs = {t: Payload((i + 1) * scale) for i, t in enumerate(_G.leaf_ids())}
    return RunRequest(
        _G, _RAISING if raising else _FINE, inputs, n_procs=4,
        tenant=tenant, options={"compile": True},
    )


class _Entry:
    """The model of one queued execution: its key and live waiters."""

    def __init__(self, tenant, key):
        self.tenant = tenant
        self.key = key
        self.waiters = []


class ServiceMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.resolved = []  # (handle, key) resolved by a drain or close
        self.services = []
        self._open()

    # -- the gate ------------------------------------------------------- #

    def _open(self):
        self.svc = RunService(workers=WORKERS, quota=QUOTA)
        self.services.append(self.svc)
        self.queued: dict[tuple, _Entry] = {}  # key -> queued entry
        self.handles = []  # (handle, key) of this pause
        self._hold()

    def _hold(self):
        """Occupy every worker with a gate request, so work queues."""
        self.gate = threading.Event()
        hold = DataParallel(1)
        gate = self.gate
        fn = lambda ins, tid: (gate.wait(WAIT), [ins[0]])[1]  # noqa: E731
        self.blockers = [
            self.svc.submit(
                RunRequest(hold, {hold.WORK: fn}, {0: Payload(("gate", k))},
                           runtime="serial", tenant="gatekeeper")
            )
            for k in range(WORKERS)
        ]
        deadline = time.monotonic() + WAIT
        for b in self.blockers:
            while b.status != "running":
                assert time.monotonic() < deadline, "a gate never started"
                time.sleep(0.001)

    def _outstanding(self, tenant):
        return sum(1 for e in self.queued.values() if e.tenant == tenant)

    # -- rules ---------------------------------------------------------- #

    @rule(
        tenant=st.sampled_from(TENANTS),
        scale=st.integers(1, 4),
        raising=st.booleans(),
    )
    def submit(self, tenant, scale, raising):
        key = (scale, raising)
        twin = self.queued.get(key)
        try:
            h = self.svc.submit(_request(tenant, scale, raising))
        except AdmissionError as err:
            assert twin is None and self._outstanding(tenant) >= QUOTA
            assert err.reason == "tenant-quota"
            return
        assert h.dedup == (twin is not None)
        assert h.status == "queued"
        if twin is None:
            assert self._outstanding(tenant) < QUOTA
            twin = self.queued[key] = _Entry(tenant, key)
        twin.waiters.append(h)
        self.handles.append((h, key))

    @precondition(lambda self: self.queued)
    @rule(data=st.data(), tenant=st.sampled_from(TENANTS))
    def duplicate_submit(self, data, tenant):
        key = data.draw(st.sampled_from(sorted(self.queued)))
        h = self.svc.submit(_request(tenant, *key))
        assert h.dedup  # coalesced, whatever the tenant's quota
        self.queued[key].waiters.append(h)
        self.handles.append((h, key))

    @precondition(lambda self: self.handles)
    @rule(data=st.data())
    def cancel(self, data):
        h, key = data.draw(st.sampled_from(self.handles))
        entry = self.queued.get(key)
        live = entry is not None and h in entry.waiters
        assert h.cancel() == live
        assert h.status == "cancelled" and h.done()
        if live:
            entry.waiters.remove(h)
            if not entry.waiters:
                del self.queued[key]

    @rule()
    def drain(self):
        self.gate.set()
        self._settle()
        self._hold()

    @rule()
    def close(self):
        self.gate.set()
        self.svc.close(wait=True, timeout=WAIT)
        assert not any(t.is_alive() for t in self.svc._threads)
        self._settle()
        self._open()

    # -- checks ---------------------------------------------------------- #

    def _settle(self):
        """Wait for every handle, then check each outcome once."""
        for b in self.blockers:
            assert b.wait(WAIT), "a gate never finished"
        for h, _ in self.handles:
            assert h.wait(WAIT), f"a handle stuck in {h.status!r}"
        outcomes = {}
        for h, key in self.handles:
            if h.status == "cancelled":
                continue
            scale, raising = key
            if raising:
                assert h.status == "error"
                exc = h.exception(0)
                assert isinstance(exc, Boom)
                outcomes.setdefault(key, exc)
                assert exc is outcomes[key]  # one outcome per execution
                with pytest.raises(Boom):
                    h.result(0)
            else:
                assert h.status == "done"
                result = h.result(0)
                outcomes.setdefault(key, result)
                assert result is outcomes[key]  # the same result object
        for key, result in outcomes.items():
            if not key[1]:
                self._write_everywhere(result, key[0])
        self.resolved.extend(self.handles)
        self.handles = []
        self.queued = {}

    def _write_everywhere(self, result, scale):
        root = _G.root_id
        makespan = result.stats.makespan
        with pytest.raises(TypeError):
            result.outputs[root][0] = Payload(-1)
        with pytest.raises(TypeError):
            result.outputs.pop(root)
        with pytest.raises(FrozenInstanceError):
            result.stats.makespan = -1.0
        with pytest.raises(TypeError):
            result.stats.callback_time[_G.ROOT] = -1.0
        with pytest.raises(TypeError):
            result.metrics.gauges["imbalance"] = -1.0
        with pytest.raises(TypeError):
            result.metrics.histograms["message_nbytes"]["count"] = -1
        assert result.output(root).data == _BASE * scale
        assert result.stats.makespan == makespan

    @invariant()
    def outstanding_never_negative(self):
        assert all(n >= 0 for n in self.svc._queue.outstanding.values())

    @invariant()
    def resolved_handles_pin_no_inflight_key(self):
        inflight = list(self.svc._inflight.values())
        for h, _ in self.resolved + self.handles:
            entry = h._entry
            if h.done() and entry.state == "resolved":
                assert entry.key is None and entry.request is None
                assert all(e is not entry for e in inflight)
        for entry in inflight:  # only live work holds a key
            assert any(not w.done() for w in entry.waiters)

    @invariant()
    def results_stay_put(self):
        for h, (scale, raising) in self.resolved:
            if h.status == "done":
                assert h.result(0).output(_G.root_id).data == _BASE * scale

    def teardown(self):
        self.gate.set()
        for svc in self.services:
            svc.close(wait=True, timeout=WAIT)
            assert not any(t.is_alive() for t in svc._threads)


TestServiceMachine = ServiceMachine.TestCase
TestServiceMachine.settings = settings(
    max_examples=25, stateful_step_count=15, deadline=None
)
