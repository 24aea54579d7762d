"""Conformance matrix: every simulator backend honors the fault contract.

Parametrized over the five simulator-backed controllers, this suite pins
the behaviours the fault subsystem (:mod:`repro.faults`) guarantees:

* attempt accounting — a ``FaultPlan``'s transient budget produces
  exactly that many failed attempts, then the task completes;
* retry scheduling — ``task.retry`` events follow the policy's backoff
  schedule (exponential, capped, deterministic spread) to the bit;
* attempt budgets — exhausting ``max_attempts`` raises ``FaultError``;
* timeout detection — attempts longer than ``task_timeout`` are aborted
  and handled as faults;
* rank deaths — a mid-run death re-places every task of the dead rank
  onto survivors (``task.migrated``), replays lost lineage, and still
  produces bit-identical outputs;
* per-run consumption — a plan's budget is materialized fresh each
  ``run()``, under ``legacy_policy`` too.
"""

from __future__ import annotations

import pytest

from repro.core.errors import FaultError
from repro.core.payload import Payload
from repro.faults import (
    FaultPlan,
    LinkFault,
    RankDeath,
    RetryPolicy,
    TaskFault,
    legacy_policy,
)
from repro.graphs import Reduction
from repro.obs import ListSink
from repro.obs.events import FAULT_INJECTED, RANK_DEAD, TASK_MIGRATED, TASK_RETRY
from repro.runtimes import (
    BlockingMPIController,
    CharmController,
    LegionIndexController,
    LegionSPMDController,
    MPIController,
)
from repro.runtimes.costs import CallableCost

SIM_CONTROLLERS = [
    MPIController,
    BlockingMPIController,
    CharmController,
    LegionSPMDController,
    LegionIndexController,
]
IDS = ["mpi", "blocking", "charm", "legion-spmd", "legion-index"]

LEAVES = 8
PROCS = 4


def build(ctor, sink=None, cost=0.01, **kwargs):
    g = Reduction(LEAVES, 2)
    c = ctor(PROCS, cost_model=CallableCost(lambda t, i: cost), **kwargs)
    if sink is not None:
        c.add_sink(sink)
    c.initialize(g)
    c.register_callback(g.LEAF, lambda ins, tid: [ins[0]])
    add = lambda ins, tid: [Payload(sum(p.data for p in ins))]
    c.register_callback(g.REDUCE, add)
    c.register_callback(g.ROOT, add)
    return g, c


def run(c, g):
    return c.run({t: Payload(1) for t in g.leaf_ids()})


@pytest.mark.parametrize("ctor", SIM_CONTROLLERS, ids=IDS)
class TestRetryConformance:
    def test_attempt_counts_match_plan(self, ctor):
        plan = FaultPlan(task_faults={0: 2, 7: 1})
        g, c = build(ctor, fault_plan=plan)
        r = run(c, g)
        assert r.output(g.root_id).data == LEAVES
        assert c.retries == 3
        assert r.metrics.counters["faults_injected"] == 3
        assert r.stats.get("wasted") > 0.0

    def test_retry_events_follow_backoff_schedule(self, ctor):
        policy = RetryPolicy(
            max_attempts=8,
            backoff_base=0.002,
            backoff_factor=2.0,
            backoff_max=0.005,
            spread=0.001,
        )
        tid, n_faults = 3, 4
        sink = ListSink()
        g, c = build(
            ctor,
            sink=sink,
            fault_plan=FaultPlan(task_faults={tid: n_faults}),
            retry_policy=policy,
        )
        r = run(c, g)
        assert r.output(g.root_id).data == LEAVES
        retries = [e for e in sink.by_type(TASK_RETRY) if e.task == tid]
        assert len(retries) == n_faults
        # The emitted delay is exactly the policy's deterministic backoff
        # (exponential, capped at backoff_max, plus the hashed spread).
        for attempt, ev in enumerate(retries, start=1):
            assert ev.dur == policy.delay(tid, attempt)

    def test_max_attempts_budget_raises(self, ctor):
        # More transient faults than the budget allows: unrecoverable.
        plan = FaultPlan(task_faults={2: 5})
        g, c = build(
            ctor,
            fault_plan=plan,
            retry_policy=RetryPolicy(max_attempts=3),
        )
        with pytest.raises(FaultError, match="failed 3 attempts"):
            run(c, g)

    def test_timeout_detection(self, ctor):
        # Task 5 computes for 0.05 virtual seconds but the policy allows
        # 0.02: every attempt times out until the budget is exhausted.
        g = Reduction(LEAVES, 2)
        c = ctor(
            PROCS,
            cost_model=CallableCost(
                lambda t, i: 0.05 if t.id == 5 else 0.001
            ),
            fault_plan=FaultPlan(),
            retry_policy=RetryPolicy(max_attempts=2, task_timeout=0.02),
        )
        sink = ListSink()
        c.add_sink(sink)
        c.initialize(g)
        c.register_callback(g.LEAF, lambda ins, tid: [ins[0]])
        add = lambda ins, tid: [Payload(sum(p.data for p in ins))]
        c.register_callback(g.REDUCE, add)
        c.register_callback(g.ROOT, add)
        with pytest.raises(FaultError, match="failed 2 attempts"):
            run(c, g)
        timeouts = [
            e for e in sink.by_type(FAULT_INJECTED) if e.category == "timeout"
        ]
        assert len(timeouts) == 2
        assert all(e.task == 5 for e in timeouts)

    def test_generous_timeout_is_clean(self, ctor):
        g, c = build(
            ctor,
            fault_plan=FaultPlan(),
            retry_policy=RetryPolicy(task_timeout=10.0),
        )
        r = run(c, g)
        assert r.output(g.root_id).data == LEAVES
        assert c.retries == 0
        assert r.stats.get("wasted") == 0.0

    def test_rank_death_replacement(self, ctor):
        dead = 2
        plan = FaultPlan(rank_deaths=[RankDeath(dead, at=0.015)])
        sink = ListSink()
        g, c = build(ctor, sink=sink, fault_plan=plan)
        r = run(c, g)
        # Recovery reaches the bit-identical result.
        assert r.output(g.root_id).data == LEAVES
        deaths = sink.by_type(RANK_DEAD)
        assert [e.proc for e in deaths] == [dead]
        assert deaths[0].t == pytest.approx(0.015)
        assert r.metrics.counters["rank_deaths"] == 1
        # Every re-placement lands on a survivor.
        moved = sink.by_type(TASK_MIGRATED)
        assert moved, "death mid-run must re-place at least one task"
        assert all(e.proc != dead for e in moved)
        # The dead rank does no work after the death.
        for e in sink.by_type("task_started"):
            if e.proc == dead:
                assert e.t <= 0.015 + 1e-12

    def test_rank_death_at_time_zero(self, ctor):
        # A rank dead before the run starts behaves like a smaller
        # cluster: everything re-places, nothing is lost.
        plan = FaultPlan(rank_deaths=[RankDeath(1, at=0.0)])
        sink = ListSink()
        g, c = build(ctor, sink=sink, fault_plan=plan)
        r = run(c, g)
        assert r.output(g.root_id).data == LEAVES
        assert all(e.proc != 1 for e in sink.by_type("task_started"))

    def test_plan_budget_is_consumed_per_run(self, ctor):
        # A FaultPlan is immutable; each run() materializes a fresh
        # budget, so the second run injects the same faults again.
        plan = FaultPlan(task_faults={0: 1})
        g, c = build(ctor, fault_plan=plan)
        r1 = run(c, g)
        r2 = run(c, g)
        assert c.retries == 1  # per-run counter: the task failed again
        assert r1.metrics.counters["faults_injected"] == 1
        assert r2.metrics.counters["faults_injected"] == 1
        assert r2.output(g.root_id).data == LEAVES


class TestLegacyPolicy:
    """``legacy_policy`` — flat delay, unlimited attempts — is the one
    spelling of the pre-subsystem fault semantics."""

    def test_budget_resets_between_runs(self):
        # Per-run consumption (mirrors
        # test_runtimes_faults.py::test_fault_budget_resets_between_runs).
        g, c = build(MPIController, fault_plan=FaultPlan(task_faults={0: 1}),
                     retry_policy=legacy_policy(0.003))
        run(c, g)
        run(c, g)
        assert c.retries == 1

    def test_legacy_kwargs_are_gone(self):
        with pytest.raises(TypeError, match="faults"):
            MPIController(2, faults={0: 1})
        with pytest.raises(TypeError, match="fault_retry_delay"):
            MPIController(2, fault_retry_delay=0.1)


@pytest.mark.parametrize("ctor", SIM_CONTROLLERS, ids=IDS)
class TestLinkFaults:
    def test_dropped_messages_retransmit(self, ctor):
        sink = ListSink()
        g, c = build(
            ctor,
            sink=sink,
            fault_plan=FaultPlan(
                link_faults=[LinkFault(drop=True, start=0.0, end=0.02)]
            ),
            retry_policy=RetryPolicy(backoff_base=0.005),
        )
        r = run(c, g)
        assert r.output(g.root_id).data == LEAVES
        drops = [
            e for e in sink.by_type(FAULT_INJECTED) if e.category == "link"
        ]
        assert drops
        assert r.metrics.counters["messages_dropped"] == len(drops)
        assert r.metrics.counters["messages_retransmitted"] >= len(drops)

    def test_degraded_link_slows_the_run(self, ctor):
        g1, c1 = build(ctor)
        g2, c2 = build(
            ctor,
            fault_plan=FaultPlan(
                link_faults=[LinkFault(bandwidth_factor=0.01,
                                       extra_latency=0.001)]
            ),
        )
        clean, degraded = run(c1, g1), run(c2, g2)
        assert degraded.output(g2.root_id).data == LEAVES
        assert degraded.makespan > clean.makespan

    def test_permanent_drop_exhausts_retransmissions(self, ctor):
        g, c = build(
            ctor,
            fault_plan=FaultPlan(link_faults=[LinkFault(drop=True)]),
            retry_policy=RetryPolicy(max_attempts=3, backoff_base=0.001),
        )
        with pytest.raises(FaultError, match="retransmission budget"):
            run(c, g)

    def test_every_message_feeds_the_latency_sketch(self, ctor):
        g, c = build(ctor, telemetry=True)
        r = run(c, g)
        assert r.stats.messages > 0
        assert r.metrics.sketches["message_seconds"]["count"] == r.stats.messages


class TestPlanValidation:
    def test_killing_every_rank_is_rejected(self):
        plan = FaultPlan(rank_deaths=[RankDeath(0), RankDeath(1)])
        with pytest.raises(FaultError, match="no survivor"):
            MPIController(2, fault_plan=plan)

    def test_death_out_of_range_is_rejected(self):
        with pytest.raises(FaultError, match="out of range|has"):
            MPIController(2, fault_plan=FaultPlan(rank_deaths=[RankDeath(5)]))

    def test_duplicate_death_is_rejected(self):
        with pytest.raises(FaultError, match="dies twice"):
            FaultPlan(rank_deaths=[RankDeath(1, 0.0), RankDeath(1, 1.0)])

    def test_task_fault_counts_accumulate(self):
        plan = FaultPlan(task_faults=[TaskFault(3, 1), TaskFault(3, 2)])
        assert plan.task_budget() == {3: 3}
        # task_budget() hands out an independent copy every call.
        plan.task_budget()[3] = 0
        assert plan.task_budget() == {3: 3}

    def test_random_plan_is_reproducible(self):
        kw = dict(
            task_ids=range(20), n_procs=4, task_fault_rate=0.5,
            n_rank_deaths=1, death_window=(0.0, 1.0),
            link_fault_rate=0.2, link_drop=True,
        )
        a = FaultPlan.random(7, **kw)
        b = FaultPlan.random(7, **kw)
        assert a.task_faults == b.task_faults
        assert a.rank_deaths == b.rank_deaths
        assert a.link_faults == b.link_faults
        # Rank 0 is never killed; at least one rank survives.
        assert all(d.proc != 0 for d in a.rank_deaths)
        assert len(a.rank_deaths) < 4

    def test_retry_policy_validation(self):
        with pytest.raises(FaultError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(FaultError):
            RetryPolicy(backoff_base=-1.0)
        with pytest.raises(FaultError):
            RetryPolicy(task_timeout=0.0)

    def test_policy_delay_is_exponential_and_capped(self):
        p = RetryPolicy(backoff_base=1.0, backoff_factor=2.0, backoff_max=5.0)
        assert [p.delay(0, a) for a in (1, 2, 3, 4)] == [1.0, 2.0, 4.0, 5.0]
        # Deterministic spread: pure function of (key, attempt).
        s = RetryPolicy(backoff_base=1.0, spread=0.5)
        assert s.delay(3, 1) == s.delay(3, 1)
        assert 1.0 <= s.delay(3, 1) < 1.5
