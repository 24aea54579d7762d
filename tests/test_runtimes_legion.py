"""Legion controller specifics: launcher overheads, rounds, SPMD vs index
behaviour (the mechanisms behind the paper's Figs. 2 and 3)."""

import pytest

from repro.core.payload import Payload
from repro.graphs import DataParallel, Reduction
from repro.obs.events import TASK_FINISHED, ListSink
from repro.runtimes import (
    DEFAULT_COSTS,
    LegionIndexController,
    LegionSPMDController,
    MPIController,
)
from repro.runtimes.costs import CallableCost


def run_flat(ctor, n_tasks, n_procs, work=0.0, **kwargs):
    g = DataParallel(n_tasks)
    c = ctor(n_procs, cost_model=CallableCost(lambda t, i: work), **kwargs)
    c.initialize(g)
    c.register_callback(g.WORK, lambda ins, tid: [ins[0]])
    return c.run({t: Payload(1) for t in range(n_tasks)})


class TestIndexLaunch:
    def test_spawn_cost_proportional_to_tasks(self):
        r1 = run_flat(LegionIndexController, 64, 64)
        r2 = run_flat(LegionIndexController, 256, 256)
        assert r2.stats.get("spawn") == pytest.approx(
            4 * r1.stats.get("spawn")
        )

    def test_total_grows_with_task_count_despite_strong_scaling(self):
        """Fig. 3: N tasks on N cores — per-task work shrinks but the
        total rises because the parent spawns serially."""
        totals = []
        for n in (64, 256, 1024):
            r = run_flat(LegionIndexController, n, n, work=1.0 / n)
            totals.append(r.makespan)
        assert totals[0] < totals[1] < totals[2]

    def test_rounds_are_barriered(self):
        """No round r+1 task may start before round r finished."""
        g = Reduction(8, 2)
        sink = ListSink()
        c = LegionIndexController(8, sinks=[sink],
                                  cost_model=CallableCost(lambda t, i: 0.01))
        c.initialize(g)
        c.register_callback(g.LEAF, lambda ins, tid: [ins[0]])
        add = lambda ins, tid: [Payload(sum(p.data for p in ins))]
        c.register_callback(g.REDUCE, add)
        c.register_callback(g.ROOT, add)
        c.run({t: Payload(1) for t in g.leaf_ids()})
        done = {e.task: e for e in sink.events if e.type == TASK_FINISHED}
        rounds = g.rounds()
        for earlier, later in zip(rounds, rounds[1:]):
            end_of_round = max(done[t].t for t in earlier)
            for t in later:
                assert done[t].t - done[t].dur >= end_of_round - 1e-12

    def test_ignores_task_map(self):
        from repro.core.taskmap import ModuloMap

        g = DataParallel(4)
        c = LegionIndexController(2)
        c.initialize(g, ModuloMap(2, 4))
        c.register_callback(g.WORK, lambda ins, tid: [ins[0]])
        assert c.run({t: Payload(1) for t in range(4)}).stats.tasks_executed == 4


class TestSPMD:
    def test_must_epoch_cheaper_than_index_spawn(self):
        """The SPMD must-epoch launch pays per shard, the index launch
        per task — with many tasks per shard SPMD spawns far less."""
        r_spmd = run_flat(LegionSPMDController, 1024, 16)
        r_index = run_flat(LegionIndexController, 1024, 16)
        assert r_spmd.stats.get("spawn") < r_index.stats.get("spawn")

    def test_spmd_beats_index_on_deep_graph(self):
        """Fig. 2: the merge-tree-like deep reduction favors SPMD."""
        g = Reduction(256, 2)

        def run(ctor):
            c = ctor(64, cost_model=CallableCost(lambda t, i: 1e-4))
            c.initialize(g)
            c.register_callback(g.LEAF, lambda ins, tid: [ins[0]])
            add = lambda ins, tid: [Payload(sum(p.data for p in ins))]
            c.register_callback(g.REDUCE, add)
            c.register_callback(g.ROOT, add)
            return c.run({t: Payload(1) for t in g.leaf_ids()})

        assert run(LegionSPMDController).makespan < run(LegionIndexController).makespan

    def test_staging_charged_per_task(self):
        r = run_flat(LegionSPMDController, 32, 8)
        assert r.stats.get("staging") > 0
        assert r.stats.get("launch") == pytest.approx(
            32 * DEFAULT_COSTS.legion_single_launch_overhead
        )

    def test_launcher_serializes_within_shard(self):
        """Two tasks on one shard cannot launch simultaneously even with
        many cores available."""
        g = DataParallel(2)
        sink = ListSink()
        c = LegionSPMDController(1, cores_per_proc=4, sinks=[sink])
        c.initialize(g)
        c.register_callback(g.WORK, lambda ins, tid: [ins[0]])
        c.run({t: Payload(1) for t in range(2)})
        starts = sorted(
            e.t - e.dur for e in sink.events if e.type == TASK_FINISHED
        )
        assert starts[1] >= starts[0] + DEFAULT_COSTS.legion_single_launch_overhead - 1e-12


class TestComparedToMPI:
    def test_legion_overhead_exceeds_mpi_for_tiny_tasks(self):
        """Many no-work tasks: the generic claim behind Fig. 6's Legion
        flattening — per-task runtime overhead dominates."""
        r_mpi = run_flat(MPIController, 512, 64)
        r_spmd = run_flat(LegionSPMDController, 512, 64)
        r_index = run_flat(LegionIndexController, 512, 64)
        assert r_mpi.makespan < r_spmd.makespan < r_index.makespan
