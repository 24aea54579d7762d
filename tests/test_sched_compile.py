"""Unit tests for :mod:`repro.sched.compile`.

Fingerprints (value equality across instances, instance memoization),
the LRU :class:`PlanCache`, :func:`compile_plan` lowering (placement
flattened, graph-only facts left to the graph's tables), the run-plan
key (graph and map only: one plan serves every machine and rank count),
and the planner's ``cache=`` integration.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.errors import TaskMapError
from repro.core.explicit import ExplicitGraph
from repro.core.ids import EXTERNAL, TNULL
from repro.core.payload import Payload
from repro.core.task import Task
from repro.core.taskmap import BlockMap, ModuloMap, RangeMap
from repro.graphs import MergeTreeGraph, Reduction
from repro.runtimes import MPIController
from repro.runtimes.costs import DEFAULT_COSTS, CallableCost
from repro.sched import (
    PLAN_CACHE,
    CallbackWeightEstimate,
    PlanCache,
    UniformEstimate,
    compile_plan,
    plan_placement,
)
from repro.sched.compile import (
    graph_fingerprint,
    placement_key,
    run_plan_key,
    taskmap_fingerprint,
)
from repro.sim.machine import SHAHEEN_II


# ---------------------------------------------------------------------- #
# Fingerprints
# ---------------------------------------------------------------------- #


def test_graph_fingerprint_value_equality() -> None:
    a, b = Reduction(16, 2), Reduction(16, 2)
    assert graph_fingerprint(a) == graph_fingerprint(b)
    assert graph_fingerprint(a) != graph_fingerprint(Reduction(16, 4))
    assert graph_fingerprint(a) != graph_fingerprint(Reduction(32, 2))


def test_graph_fingerprint_memoized_and_shared_by_views() -> None:
    g = Reduction(16, 2)
    fp = graph_fingerprint(g)
    assert graph_fingerprint(g) is fp  # memo hit returns the same tuple
    assert graph_fingerprint(g.cached()) is fp  # views share the base memo


def test_taskmap_fingerprints() -> None:
    assert taskmap_fingerprint(ModuloMap(4, 31)) == taskmap_fingerprint(
        ModuloMap(4, 31)
    )
    assert taskmap_fingerprint(ModuloMap(4, 31)) != taskmap_fingerprint(
        ModuloMap(5, 31)
    )
    assert taskmap_fingerprint(BlockMap(4, 31)) != taskmap_fingerprint(
        ModuloMap(4, 31)
    )
    r1 = RangeMap(2, [0] * 10 + [1] * 21)
    r2 = RangeMap(2, [0] * 10 + [1] * 21)
    r3 = RangeMap(2, [0] * 16 + [1] * 15)
    assert taskmap_fingerprint(r1) == taskmap_fingerprint(r2)
    assert taskmap_fingerprint(r1) != taskmap_fingerprint(r3)
    m = ModuloMap(4, 31)
    assert taskmap_fingerprint(m) is taskmap_fingerprint(m)  # memoized


def test_generic_taskmap_fingerprint_enumerates() -> None:
    from repro.core.taskmap import TaskMap

    class Custom(TaskMap):
        def shard(self, tid):
            return tid % self.shard_count

    fp = taskmap_fingerprint(Custom(4, 31))
    assert fp[0] == "Custom"
    assert fp == taskmap_fingerprint(Custom(4, 31))
    # Same table as a ModuloMap, but the type participates in the key.
    assert fp != taskmap_fingerprint(ModuloMap(4, 31))


def test_run_plan_key_distinguishes_inputs() -> None:
    g = Reduction(16, 2)
    m = ModuloMap(4, g.size())
    base = run_plan_key(g, m)
    assert base == run_plan_key(Reduction(16, 2), ModuloMap(4, g.size()))
    assert base != run_plan_key(g, BlockMap(4, g.size()))
    assert base != run_plan_key(Reduction(16, 4), m)


def test_one_plan_serves_every_machine_and_rank_count() -> None:
    # The plan is the flattened map, so neither the machine nor the rank
    # count may split the cache; each compiled run must still price its
    # own machine exactly as the interpreted run does.
    slow = replace(SHAHEEN_II, inter_bandwidth=SHAHEEN_II.inter_bandwidth / 4)
    PLAN_CACHE.clear()
    makespans = {}
    for machine, n_procs in ((SHAHEEN_II, 8), (slow, 8), (SHAHEEN_II, 16)):
        for compiled in (True, False):
            g = Reduction(64, 4)
            c = MPIController(
                n_procs,
                machine=machine,
                procs_per_node=2,
                cost_model=CallableCost(lambda t, i: 1e-3),
                compile=compiled,
            )
            c.initialize(g, ModuloMap(8, g.size()))
            c.register_callback(g.LEAF, lambda ins, tid: [ins[0]])
            add = lambda ins, tid: [Payload(sum(p.data for p in ins))]
            c.register_callback(g.REDUCE, add)
            c.register_callback(g.ROOT, add)
            result = c.run(
                {t: Payload(np.full(4096, i)) for i, t in
                 enumerate(g.leaf_ids())}
            )
            makespans[machine is slow, n_procs, compiled] = (
                result.stats.makespan
            )
    stats = PLAN_CACHE.stats()
    assert (stats["misses"], stats["hits"]) == (1, 2)
    for (slow_net, n_procs, compiled), makespan in makespans.items():
        if compiled:
            assert makespan == makespans[slow_net, n_procs, False]
    assert makespans[True, 8, True] > makespans[False, 8, True]


def test_placement_key_distinguishes_estimators() -> None:
    g = Reduction(16, 2)
    u1 = UniformEstimate(1e-4, nbytes=1e6)
    u2 = UniformEstimate(1e-4, nbytes=1e6)
    u3 = UniformEstimate(2e-4, nbytes=1e6)
    k = placement_key(g, 4, SHAHEEN_II, DEFAULT_COSTS, u1, 1)
    assert k == placement_key(g, 4, SHAHEEN_II, DEFAULT_COSTS, u2, 1)
    assert k != placement_key(g, 4, SHAHEEN_II, DEFAULT_COSTS, u3, 1)
    assert k != placement_key(g, 8, SHAHEEN_II, DEFAULT_COSTS, u1, 1)
    assert k != placement_key(g, 4, SHAHEEN_II, DEFAULT_COSTS, u1, 2)
    w1 = CallbackWeightEstimate({0: 1e-4, 1: 2e-4})
    w2 = CallbackWeightEstimate({1: 2e-4, 0: 1e-4})
    assert w1.fingerprint() == w2.fingerprint()  # order-insensitive


# ---------------------------------------------------------------------- #
# PlanCache
# ---------------------------------------------------------------------- #


def test_plan_cache_lru_eviction() -> None:
    cache = PlanCache(maxsize=2)
    cache.put(("a",), 1)
    cache.put(("b",), 2)
    assert cache.get(("a",)) == 1  # refresh "a": "b" is now LRU
    cache.put(("c",), 3)
    assert ("b",) not in cache
    assert cache.get(("b",)) is None
    assert cache.get(("a",)) == 1
    assert cache.get(("c",)) == 3
    assert len(cache) == 2


def test_plan_cache_counters_and_clear() -> None:
    cache = PlanCache(maxsize=4)
    assert cache.get(("x",)) is None
    cache.put(("x",), "v")
    assert cache.get(("x",)) == "v"
    assert (cache.hits, cache.misses) == (1, 1)
    cache.clear()
    assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)
    with pytest.raises(ValueError):
        PlanCache(maxsize=0)


def test_plan_placement_cache_roundtrip() -> None:
    g = Reduction(32, 2).cached()
    cache = PlanCache(maxsize=4)
    est = UniformEstimate(1e-4, nbytes=1e6)
    cold = plan_placement(g, 4, estimator=est, cache=cache)
    warm = plan_placement(g, 4, estimator=est, cache=cache)
    assert warm is cold  # warm hit returns the cached object itself
    assert cache.hits == 1 and cache.misses == 1
    # A value-equal estimator on a fresh graph instance still hits.
    again = plan_placement(
        Reduction(32, 2), 4,
        estimator=UniformEstimate(1e-4, nbytes=1e6), cache=cache,
    )
    assert again is cold


def test_plan_placement_cache_validates_ids_first() -> None:
    g = ExplicitGraph([Task(7, 0, [EXTERNAL], [[TNULL]])])
    with pytest.raises(TaskMapError):
        plan_placement(
            g, 2, estimator=UniformEstimate(1e-4), cache=PlanCache()
        )


# ---------------------------------------------------------------------- #
# compile_plan lowering
# ---------------------------------------------------------------------- #


def test_compile_plan_templates_match_interpreter() -> None:
    # The templates are the graph's tables now; the plan keeps placement.
    g = MergeTreeGraph(16, 2).cached()
    tm = ModuloMap(4, g.size())
    plan = compile_plan(g, tm)
    # What a compiled run reads that does not depend on placement lives
    # in the graph's tables, once — not a second time on the plan.
    tables = g.tables()
    for gone in ("tasks", "n_inputs", "slot_maps", "sources"):
        assert not hasattr(plan, gone)
    sources = []
    for tid in range(g.size()):
        t = g.task(tid)
        assert tables.tasks[tid].id == tid
        assert tables.n_inputs[tid] == t.n_inputs
        assert plan.proc[tid] == tm.shard(tid)
        if EXTERNAL in t.incoming:
            sources.append(tid)
    assert tables.sources == sources  # ascending deposit order
    assert len(plan.proc) == g.size()


def test_compile_plan_rejects_noncontiguous_ids() -> None:
    g = ExplicitGraph([Task(3, 0, [EXTERNAL], [[TNULL]])])
    with pytest.raises(TaskMapError):
        compile_plan(g, ModuloMap(2, 1))


def test_process_wide_cache_exists() -> None:
    assert isinstance(PLAN_CACHE, PlanCache)
    assert PLAN_CACHE.maxsize > 0
