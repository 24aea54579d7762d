"""Fault injection: idempotent tasks survive transient re-execution.

Transient task faults under the flat-delay ``legacy_policy``;
``tests/test_faults_conformance.py`` covers the rest of the
``fault_plan=`` API.
"""

import numpy as np

from repro.core.payload import Payload
from repro.faults import FaultPlan, legacy_policy
from repro.graphs import Reduction
from repro.runtimes import CharmController, MPIController
from repro.runtimes.costs import CallableCost


def fault_kwargs(faults, retry_delay=0.0):
    if faults is None:
        return {}
    return {
        "fault_plan": FaultPlan(task_faults=faults),
        "retry_policy": legacy_policy(retry_delay),
    }


def run(ctor, faults=None, retry_delay=0.0, leaves=8):
    g = Reduction(leaves, 2)
    c = ctor(
        4,
        cost_model=CallableCost(lambda t, i: 0.05),
        **fault_kwargs(faults, retry_delay),
    )
    c.initialize(g)
    c.register_callback(g.LEAF, lambda ins, tid: [ins[0]])
    add = lambda ins, tid: [Payload(sum(p.data for p in ins))]
    c.register_callback(g.REDUCE, add)
    c.register_callback(g.ROOT, add)
    return g, c, c.run({t: Payload(1) for t in g.leaf_ids()})


class TestFaultInjection:
    def test_results_survive_failures(self):
        g, c, r = run(MPIController, faults={0: 2, 7: 1})
        assert r.output(g.root_id).data == 8
        assert c.retries == 3

    def test_makespan_increases_with_failures(self):
        _, _, clean = run(MPIController)
        _, _, faulty = run(MPIController, faults={0: 3}, retry_delay=0.1)
        assert faulty.makespan > clean.makespan
        assert faulty.stats.get("wasted") > 0

    def test_clean_run_has_no_waste(self):
        _, c, r = run(MPIController)
        assert c.retries == 0
        assert r.stats.get("wasted") == 0.0

    def test_every_backend_tolerates_faults(self):
        from repro.runtimes import LegionSPMDController

        for ctor in (MPIController, CharmController, LegionSPMDController):
            g, c, r = run(ctor, faults={7: 1, 9: 2})
            assert r.output(g.root_id).data == 8, ctor.__name__
            assert c.retries == 3

    def test_fault_budget_resets_between_runs(self):
        g, c, r1 = run(MPIController, faults={0: 1})
        r2 = c.run({t: Payload(1) for t in g.leaf_ids()})
        assert c.retries == 1  # the second run fails the task again
        assert r2.output(g.root_id).data == 8

    def test_merge_tree_with_faults_still_exact(self, small_field):
        from repro.analysis.mergetree import (
            MergeTreeWorkload,
            reference_segmentation,
        )

        wl = MergeTreeWorkload(small_field, 8, 0.5, valence=2)
        some_tasks = list(wl.graph.task_ids())[::5]
        c = MPIController(4, **fault_kwargs({t: 1 for t in some_tasks}))
        seg = wl.assemble(wl.run(c))
        assert np.array_equal(seg, reference_segmentation(small_field, 0.5))
        assert c.retries == len(some_tasks)
