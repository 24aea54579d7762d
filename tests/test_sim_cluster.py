"""Tests for the simulated cluster (machine, network, statistics)."""

import pytest

from repro.core.errors import SimulationError
from repro.obs.events import MESSAGE_DELIVERED, TASK_FINISHED, Event, ListSink
from repro.obs.hub import ObsHub
from repro.obs.timeline import ascii_timeline, resource_timelines
from repro.sim.cluster import Cluster
from repro.sim.engine import Engine
from repro.sim.machine import SHAHEEN_II, MachineSpec
from repro.sim.trace import Stats


def make(n_procs=4, cores=1, machine=SHAHEEN_II, obs=None, ppn=None):
    eng = Engine()
    kwargs = {} if obs is None else {"obs": obs}
    return eng, Cluster(
        eng, machine, n_procs, cores, procs_per_node=ppn, **kwargs
    )


class TestMachineSpec:
    def test_defaults_are_shaheen_like(self):
        assert SHAHEEN_II.cores_per_node == 32

    def test_validation(self):
        with pytest.raises(ValueError):
            MachineSpec(cores_per_node=0)
        with pytest.raises(ValueError):
            MachineSpec(inter_bandwidth=-1)

    def test_nodes_for(self):
        assert SHAHEEN_II.nodes_for(32) == 1
        assert SHAHEEN_II.nodes_for(33) == 2

    def test_with_(self):
        m = SHAHEEN_II.with_(core_speed=2.0)
        assert m.core_speed == 2.0
        assert m.cores_per_node == 32


class TestTopology:
    def test_packing(self):
        _, cl = make(n_procs=64)
        assert cl.node_of(0) == 0
        assert cl.node_of(31) == 0
        assert cl.node_of(32) == 1
        assert cl.n_nodes == 2

    def test_explicit_procs_per_node(self):
        # Fig. 9 setup: only 4 procs per node (memory limited).
        _, cl = make(n_procs=8, ppn=4)
        assert cl.node_of(3) == 0
        assert cl.node_of(4) == 1
        assert cl.n_nodes == 2

    def test_same_node(self):
        _, cl = make(n_procs=64)
        assert cl.same_node(0, 31)
        assert not cl.same_node(0, 32)


class TestCompute:
    def test_core_speed_scales_durations(self):
        eng, cl = make(machine=SHAHEEN_II.with_(core_speed=2.0))
        _, end = cl.compute(0, 4.0)
        assert end == 2.0

    def test_busy_time_accumulates(self):
        eng, cl = make()
        cl.compute(1, 1.0)
        cl.compute(1, 2.0)
        assert cl.core_busy_time(1) == 3.0

    def test_invalid_proc(self):
        _, cl = make()
        with pytest.raises(SimulationError):
            cl.compute(9, 1.0)


class TestNetwork:
    def test_same_proc_is_free(self):
        _, cl = make()
        assert cl.message_time(2, 2, 10**6) == (0.0, 0.0)

    def test_intra_node_faster_than_inter(self):
        _, cl = make(n_procs=64)
        intra = cl.message_time(0, 1, 10**6)
        inter = cl.message_time(0, 33, 10**6)
        assert sum(intra) < sum(inter)

    def test_delivery_time(self):
        eng, cl = make(n_procs=64)
        got = []
        cl.send(0, 40, 8 * 10**9, got.append, "done")
        eng.run()
        m = cl.machine
        expected = 8e9 / m.inter_bandwidth + m.inter_latency
        assert eng.now == pytest.approx(expected)
        assert got == ["done"]

    def test_nic_serializes_messages(self):
        eng, cl = make(n_procs=64)
        times = []
        cl.send(0, 40, 8 * 10**9, lambda: times.append(eng.now))
        cl.send(0, 41, 8 * 10**9, lambda: times.append(eng.now))
        eng.run()
        # Second message injects after the first finished injecting.
        assert times[1] >= times[0] + 8e9 / cl.machine.inter_bandwidth - 1e-9

    def test_counters(self):
        eng, cl = make()
        cl.send(0, 1, 100, lambda: None)
        cl.send(1, 1, 50, lambda: None)
        assert cl.messages_sent == 2
        assert cl.bytes_sent == 150

    def test_negative_size_rejected(self):
        _, cl = make()
        with pytest.raises(SimulationError):
            cl.send(0, 1, -5, lambda: None)


class TestTrace:
    def test_message_spans_via_obs(self):
        # The cluster emits message events; compute intervals come from
        # the controllers' task events.
        sink = ListSink()
        eng, cl = make(n_procs=64, obs=ObsHub([sink]))
        cl.send(0, 40, 8 * 10**6, lambda: None)
        eng.run()
        spans = [e for e in sink.by_type(MESSAGE_DELIVERED) if e.dur > 0]
        assert len(spans) == 1
        assert spans[0].dst_proc == 40
        assert resource_timelines(sink.events).makespan > 0

    def test_busy_fraction(self):
        events = []
        eng, cl = make(n_procs=2)
        for p in (0, 1):
            start, end = cl.compute(p, 2.0)
            events.append(Event(TASK_FINISHED, end, proc=p, dur=end - start))
        eng.run()
        assert resource_timelines(events).utilization_mean() == pytest.approx(1.0)

    def test_timeline_renders(self):
        events = [Event(TASK_FINISHED, 1.0, proc=0, task=0, dur=1.0)]
        assert "p0" in ascii_timeline(events)
        assert ascii_timeline([]) == "(empty run)"


class TestStats:
    def test_accumulate(self):
        s = Stats()
        s.add("compute", 1.0)
        s.add("compute", 0.5)
        assert s.get("compute") == 1.5
        assert s.get("missing") == 0.0

    def test_summary_mentions_categories(self):
        s = Stats()
        s.add("spawn", 1.0)
        assert "spawn" in s.summary()
