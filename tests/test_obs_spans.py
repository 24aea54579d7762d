"""Causal-DAG property tests: exported span context must reproduce the
task graph's real producer edges on every controller, clean and chaos.

The acceptance invariant: for each task span, ``sorted(span.parents)``
equals the sorted multiset of real (non-external) producers named by the
task graph — i.e. every attempt that finished consumed a complete input
multiset, even after faults, retries, rank deaths, and lineage replay.
"""

from __future__ import annotations

import pytest

from tests.golden_workloads import CONTROLLERS, run_workload
from repro.obs import ListSink, causal_dag
from repro.obs.spans import recovery_accounting

ALL_NAMES = sorted(CONTROLLERS)  # six controllers + fault/chaos variants


def traced_workload(name):
    """Golden workload with an extra context-requesting sink attached."""
    c = CONTROLLERS[name]()
    ctx = ListSink(wants_context=True)
    c.add_sink(ctx)
    g, _, result = run_workload(c)
    return g, ctx.events, result


def real_producers(g, tid):
    return sorted(p for p in g.task(tid).incoming if p >= 0)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_span_parents_match_graph_producers(name):
    """Every task span's causal parents == the graph's producer multiset."""
    g, events, result = traced_workload(name)
    dag = causal_dag(events)
    assert dag.explicit
    assert len(dag.spans) == g.size()
    for tid, span in dag.spans.items():
        assert sorted(span.parents) == real_producers(g, tid), (
            f"{name}: task {tid} started with wrong causal parents"
        )


@pytest.mark.parametrize("name", ALL_NAMES)
def test_children_edges_invert_parent_edges(name):
    g, events, _ = traced_workload(name)
    dag = causal_dag(events)
    for tid in dag.spans:
        for p in dag.parents_of(tid):
            assert tid in dag.children[p]
    # Sources are exactly the externally-fed leaves; the root is a sink.
    assert dag.sources() == sorted(g.leaf_ids())
    assert dag.sinks() == [g.root_id]


def test_lineage_is_full_ancestry():
    g, events, _ = traced_workload("mpi")
    dag = causal_dag(events)
    lineage = dag.lineage(g.root_id)
    # The root of a reduction depends on every task in the graph.
    assert sorted(lineage) == sorted(dag.spans)
    assert lineage[0] == g.root_id
    # A leaf depends only on itself.
    leaf = min(g.leaf_ids())
    assert dag.lineage(leaf) == [leaf]
    with pytest.raises(KeyError):
        dag.lineage(10_000)


def test_wait_for_attributes_task_latency():
    g, events, _ = traced_workload("mpi")
    dag = causal_dag(events)
    cp = dag.wait_for(g.root_id)
    assert cp.makespan > 0
    assert cp.totals.get("compute", 0.0) > 0.0
    assert cp.tasks[-1] == g.root_id
    # An intermediate task finishes earlier than the root.
    mid = next(t for t in dag.spans if t not in g.leaf_ids() and t != g.root_id)
    assert dag.wait_for(mid).makespan <= cp.makespan + 1e-12


def test_recovery_overhead_sums_lineage_waste():
    g, events, _ = traced_workload("mpi_faults")
    dag = causal_dag(events)
    over = dag.recovery_overhead(g.root_id)
    # The golden fault spec injects transient faults on tasks 0 and 7,
    # both ancestors of the root, so the root's lineage pays for them.
    assert over["retries"] >= 3
    assert over["wasted_seconds"] > 0.0
    # A leaf untouched by faults carries no recovery overhead.
    clean_leaf = max(g.leaf_ids())
    clean = dag.recovery_overhead(clean_leaf)
    assert clean["wasted_seconds"] == 0.0 and clean["retries"] == 0


def test_chaos_run_keeps_causal_integrity_under_replay():
    """Rank death + lineage replay must still re-feed full input sets."""
    g, events, _ = traced_workload("mpi_chaos")
    rec = recovery_accounting(events)
    assert rec["faults_injected"] > 0 and rec["rank_deaths"] >= 1
    dag = causal_dag(events)
    for tid, span in dag.spans.items():
        assert sorted(span.parents) == real_producers(g, tid)
    replayed = [t for t, s in dag.spans.items() if s.attempts > 1]
    assert replayed  # chaos plan seed=7 forces re-executions


def test_derived_parents_fallback_without_context():
    """Plain sinks carry no span context; edges derive from messages."""
    g, sink, _ = run_workload(CONTROLLERS["mpi"]())
    assert all(e.parents == () for e in sink.events)
    dag = causal_dag(sink.events)
    assert not dag.explicit
    # Derived edges only see cross-proc messages, so they are a subset
    # of the real producer edges — never an invention.
    for tid in dag.spans:
        assert set(dag.parents_of(tid)) <= set(real_producers(g, tid))
