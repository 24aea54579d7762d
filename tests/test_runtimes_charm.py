"""Charm++ controller specifics: chare placement, RPC costs, and periodic
load balancing via migration."""

import pytest

from repro.core.ids import EXTERNAL, TNULL
from repro.core.payload import Payload
from repro.core.task import Task
from repro.graphs import DataParallel
from repro.obs import ListSink
from repro.obs.events import TASK_STARTED
from repro.runtimes import DEFAULT_COSTS, CharmController
from repro.runtimes.costs import CallableCost
from tests.test_core_graph import ListGraph


def imbalanced_flat(c, n_tasks=64, heavy_every=4):
    """A flat graph with a few heavy tasks: the LB showcase."""
    g = DataParallel(n_tasks)
    cost = CallableCost(
        lambda task, ins: 1.0 if task.id % heavy_every == 0 else 0.01
    )
    c.cost_model = cost
    c.initialize(g)
    c.register_callback(g.WORK, lambda ins, tid: [ins[0]])
    return g, c.run({t: Payload(1) for t in range(n_tasks)})


class TestPlacement:
    def test_round_robin_initial_placement(self):
        sink = ListSink()
        c = CharmController(4, sinks=[sink])
        g = DataParallel(8)
        c.initialize(g)
        c.register_callback(g.WORK, lambda ins, tid: [ins[0]])
        c.run({t: Payload(1) for t in range(8)})
        # With no queueing there is nothing to migrate, so every chare
        # runs where the round robin put it.
        started = {e.task: e.proc for e in sink.by_type(TASK_STARTED)}
        assert started == {t: t % 4 for t in range(8)}

    def test_ignores_task_map(self):
        from repro.core.taskmap import ModuloMap

        c = CharmController(2)
        g = DataParallel(4)
        c.initialize(g, ModuloMap(2, 4))  # accepted but unused
        c.register_callback(g.WORK, lambda ins, tid: [ins[0]])
        r = c.run({t: Payload(1) for t in range(4)})
        assert r.stats.tasks_executed == 4


class TestLoadBalancing:
    def test_migrations_happen_under_imbalance(self):
        costs = DEFAULT_COSTS.with_(charm_lb_period=0.05)
        c = CharmController(2, costs=costs)
        # All the work initially lands in order; queues build up on both
        # PEs but unevenly because of the heavy/light mix.
        imbalanced_flat(c, n_tasks=40, heavy_every=2)
        assert c.lb_rounds > 0

    def test_lb_can_be_disabled(self):
        costs = DEFAULT_COSTS.with_(charm_lb_period=0.0)
        c = CharmController(2, costs=costs)
        imbalanced_flat(c)
        assert c.lb_rounds == 0
        assert c.migrations == 0

    def test_lb_improves_imbalanced_makespan(self):
        heavy = CallableCost(lambda task, ins: 1.0 if task.id < 16 else 0.01)
        results = {}
        for period in (0.0, 0.2):
            costs = DEFAULT_COSTS.with_(charm_lb_period=period)
            c = CharmController(8, costs=costs, cost_model=heavy)
            g = DataParallel(64)
            c.initialize(g)
            c.register_callback(g.WORK, lambda ins, tid: [ins[0]])
            # All heavy tasks hash to PEs 0..7 evenly, but make them
            # collide: put the heavy ones on two PEs via id layout.
            results[period] = c.run(
                {t: Payload(1) for t in range(64)}
            ).makespan
        # With default round robin the heavy first 16 tasks spread over
        # all 8 PEs (2 each): balanced already, so LB should not hurt.
        assert results[0.2] <= results[0.0] * 1.5

    def test_lb_rescues_skewed_placement(self):
        """Heavy chares all landing on PE 0 initially (ids ≡ 0 mod PEs)."""
        n_pes = 4
        heavy = CallableCost(
            lambda task, ins: 1.0 if task.id % n_pes == 0 else 0.001
        )
        makespans = {}
        for period in (0.0, 0.1):
            costs = DEFAULT_COSTS.with_(charm_lb_period=period)
            c = CharmController(n_pes, costs=costs, cost_model=heavy)
            g = DataParallel(64)
            c.initialize(g)
            c.register_callback(g.WORK, lambda ins, tid: [ins[0]])
            makespans[period] = c.run(
                {t: Payload(1) for t in range(64)}
            ).makespan
            if period:
                assert c.migrations > 0
        assert makespans[0.1] < makespans[0.0]

    def test_results_unchanged_by_lb(self):
        outs = {}
        for period in (0.0, 0.05):
            costs = DEFAULT_COSTS.with_(charm_lb_period=period)
            c = CharmController(2, costs=costs)
            g, r = imbalanced_flat(c)
            outs[period] = tuple(r.output(t).data for t in range(g.size()))
        assert outs[0.0] == outs[0.05]


class TestRpcCosts:
    def test_remote_messages_cost_more_than_local(self):
        # One 1 MB edge, chare 0 -> chare 1: on 1 PE it stays on the PE,
        # on 2 PEs it crosses them.  Both deliveries pay the RPC.
        g = ListGraph(
            [Task(0, 0, [EXTERNAL], [[1]]), Task(1, 0, [0], [[TNULL]])]
        )

        def serialize_seconds(n_pes):
            c = CharmController(n_pes)
            c.initialize(g)
            c.register_callback(0, lambda ins, tid: [Payload(1, nbytes=10**6)])
            return c.run({0: Payload(1)}).stats.get("serialize")

        local, remote = serialize_seconds(1), serialize_seconds(2)
        assert local == DEFAULT_COSTS.charm_rpc_overhead
        assert remote > local > 0.0
