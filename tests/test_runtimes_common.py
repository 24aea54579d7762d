"""Cross-backend controller tests: every backend must execute every graph
correctly, deterministically, and with identical results — the paper's
"ideal environment for regression testing" claim."""

import numpy as np
import pytest

from repro.core.errors import ControllerError
from repro.core.ids import TNULL
from repro.core.payload import Payload
from repro.core.taskmap import BlockMap, ModuloMap
from repro.graphs import Broadcast, DataParallel, RadixK, Reduction
from repro.obs.events import TASK_FINISHED, ListSink
from repro.runtimes import (
    BlockingMPIController,
    CharmController,
    LegionIndexController,
    LegionSPMDController,
    MPIController,
    SerialController,
)

ALL = [
    SerialController,
    lambda: MPIController(4),
    lambda: BlockingMPIController(4),
    lambda: CharmController(4),
    lambda: LegionSPMDController(4),
    lambda: LegionIndexController(4),
]
IDS = ["serial", "mpi", "blocking", "charm", "legion-spmd", "legion-index"]


def run_sum_reduction(controller, leaves=16, valence=4):
    g = Reduction(leaves, valence)
    controller.initialize(g, None)
    controller.register_callback(g.LEAF, lambda ins, tid: [ins[0]])
    add = lambda ins, tid: [Payload(sum(p.data for p in ins))]
    controller.register_callback(g.REDUCE, add)
    controller.register_callback(g.ROOT, add)
    inputs = {t: Payload(i + 1) for i, t in enumerate(g.leaf_ids())}
    return g, controller.run(inputs)


@pytest.mark.parametrize("ctor", ALL, ids=IDS)
class TestAllBackends:
    def test_reduction_sum(self, ctor):
        g, result = run_sum_reduction(ctor())
        assert result.output(g.root_id).data == 16 * 17 // 2
        assert result.stats.tasks_executed == g.size()

    def test_broadcast_delivers_everywhere(self, ctor):
        g = Broadcast(8, 2)
        c = ctor()
        c.initialize(g, None)
        fwd = lambda ins, tid: [Payload(ins[0].data)]
        for cb in g.callbacks():
            c.register_callback(cb, fwd)
        result = c.run({0: Payload("hello")})
        for leaf in g.leaf_ids():
            assert result.output(leaf).data == "hello"

    def test_data_parallel(self, ctor):
        g = DataParallel(10)
        c = ctor()
        c.initialize(g, None)
        c.register_callback(g.WORK, lambda ins, tid: [Payload(ins[0].data * 2)])
        result = c.run({t: Payload(t) for t in range(10)})
        assert all(result.output(t).data == 2 * t for t in range(10))

    def test_radix2_concatenation(self, ctor):
        """Binary swap (radix-k at k = 2) over string halves: tests the
        two-channel routing and the input slot ordering (by donor digit)."""
        g = RadixK(4, 2)
        c = ctor()
        c.initialize(g, None)
        donors = {}

        def halves(i, s):
            half = len(s) // 2
            return [Payload((i, s[:half])), Payload((i, s[half:]))]

        def leaf(ins, tid):
            return halves(g.index(tid), ins[0].data)

        def comp(ins, tid):
            stage, i = g.stage(tid), g.index(tid)
            donors[tid] = [p.data[0] for p in ins]
            merged = "".join(sorted("".join(p.data[1] for p in ins)))
            if stage == g.stages:
                return [Payload(merged)]
            return halves(i, merged)

        c.register_callback(g.LEAF, leaf)
        c.register_callback(g.COMPOSITE, comp)
        c.register_callback(g.ROOT, comp)
        data = ["abcd", "efgh", "ijkl", "mnop"]
        result = c.run({t: Payload(data[i]) for i, t in enumerate(g.leaf_ids())})
        tiles = [result.output(t).data for t in g.root_ids()]
        assert sorted("".join(tiles)) == sorted("".join(data))
        # Slot t holds the strip of the group member with digit t.
        for tid, order in donors.items():
            assert order == g.group(g.stage(tid) - 1, g.index(tid)), tid
        assert len(donors) == 8

    def test_multi_sink_outputs_collected(self, ctor):
        g = DataParallel(3)
        c = ctor()
        c.initialize(g)
        c.register_callback(g.WORK, lambda ins, tid: [Payload(tid * 10)])
        result = c.run({t: Payload(None) for t in range(3)})
        assert set(result.outputs) == {0, 1, 2}

    def test_missing_callback_rejected(self, ctor):
        g = Reduction(4, 2)
        c = ctor()
        c.initialize(g)
        c.register_callback(g.LEAF, lambda ins, tid: [ins[0]])
        with pytest.raises(ControllerError, match="not registered"):
            c.run({t: Payload(1) for t in g.leaf_ids()})

    def test_missing_input_rejected(self, ctor):
        g = DataParallel(3)
        c = ctor()
        c.initialize(g)
        c.register_callback(g.WORK, lambda ins, tid: [ins[0]])
        with pytest.raises(ControllerError, match="external input"):
            c.run({0: Payload(1)})

    def test_extra_input_rejected(self, ctor):
        g = DataParallel(2)
        c = ctor()
        c.initialize(g)
        c.register_callback(g.WORK, lambda ins, tid: [ins[0]])
        with pytest.raises(ControllerError, match="without external"):
            c.run({0: Payload(1), 1: Payload(1), 5: Payload(1)})

    def test_run_before_initialize_rejected(self, ctor):
        with pytest.raises(ControllerError):
            ctor().run({})

    def test_register_before_initialize_rejected(self, ctor):
        with pytest.raises(ControllerError):
            ctor().register_callback(0, lambda i, t: [])


SIM = ALL[1:]
SIM_IDS = IDS[1:]


@pytest.mark.parametrize("ctor", SIM, ids=SIM_IDS)
class TestSimBackends:
    def test_deterministic_makespan(self, ctor):
        _, r1 = run_sum_reduction(ctor())
        _, r2 = run_sum_reduction(ctor())
        assert r1.makespan == r2.makespan
        assert r1.stats.category_time == r2.stats.category_time

    def test_stats_populated(self, ctor):
        g, result = run_sum_reduction(ctor())
        assert result.makespan > 0
        assert result.stats.messages >= g.size() - 1 - len(g.leaf_ids())
        assert result.stats.tasks_executed == g.size()

    def test_trace_collection(self, ctor):
        c = ctor()
        sink = ListSink()
        c.add_sink(sink)
        g, result = run_sum_reduction(c)
        assert sink.events
        finished = [e for e in sink.events if e.type == TASK_FINISHED]
        assert len(finished) == g.size()


class TestResultsIdenticalAcrossBackends:
    def test_numeric_identity(self):
        """All six backends produce the same reduction output."""
        values = []
        for ctor in ALL:
            g, result = run_sum_reduction(ctor())
            values.append(result.output(g.root_id).data)
        assert len(set(values)) == 1

    def test_taskmap_choice_does_not_change_results(self):
        outs = []
        for tm in [None, ModuloMap(4, Reduction(16, 4).size()), BlockMap(4, Reduction(16, 4).size())]:
            g = Reduction(16, 4)
            c = MPIController(4)
            c.initialize(g, tm)
            c.register_callback(g.LEAF, lambda ins, tid: [ins[0]])
            add = lambda ins, tid: [Payload(sum(p.data for p in ins))]
            c.register_callback(g.REDUCE, add)
            c.register_callback(g.ROOT, add)
            result = c.run({t: Payload(i) for i, t in enumerate(g.leaf_ids())})
            outs.append(result.output(0).data)
        assert len(set(outs)) == 1
