"""Tests for FIFO serving resources."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.resource import MultiResource, Resource


class TestResource:
    def test_serializes_jobs(self):
        eng = Engine()
        res = Resource(eng)
        s1 = res.submit(2.0)
        s2 = res.submit(3.0)
        assert s1 == (0.0, 2.0)
        assert s2 == (2.0, 5.0)
        assert res.busy_time == 5.0

    def test_completion_callbacks_fire_at_end(self):
        eng = Engine()
        res = Resource(eng)
        log = []
        res.submit(1.0, lambda: log.append(eng.now))
        res.submit(2.0, lambda: log.append(eng.now))
        eng.run()
        assert log == [1.0, 3.0]

    def test_idle_gap_resets_start(self):
        eng = Engine()
        res = Resource(eng)
        res.submit(1.0)
        eng.call_after(5.0, lambda: None)
        eng.run()
        start, end = res.submit(1.0)
        assert start == 5.0 and end == 6.0

    def test_negative_duration_rejected(self):
        with pytest.raises(SimulationError):
            Resource(Engine()).submit(-1.0)


class TestMultiResource:
    def test_parallel_servers(self):
        eng = Engine()
        res = MultiResource(eng, 2)
        assert res.submit(3.0) == (0.0, 3.0)
        assert res.submit(3.0) == (0.0, 3.0)
        # Third job queues behind the earliest-finishing server.
        assert res.submit(1.0) == (3.0, 4.0)

    def test_earliest_available_dispatch(self):
        eng = Engine()
        res = MultiResource(eng, 2)
        res.submit(1.0)
        res.submit(5.0)
        assert res.submit(1.0) == (1.0, 2.0)

    def test_invalid_server_count(self):
        with pytest.raises(SimulationError):
            MultiResource(Engine(), 0)

    @given(st.lists(st.floats(0.01, 10, allow_nan=False), min_size=1, max_size=30), st.integers(1, 4))
    def test_conservation_of_work(self, durations, servers):
        eng = Engine()
        res = MultiResource(eng, servers)
        ends = [res.submit(d)[1] for d in durations]
        eng.run()
        # Total busy time equals submitted work; makespan bounded by
        # work/servers (lower) and total work (upper).
        total = sum(durations)
        assert res.busy_time == pytest.approx(total)
        assert max(ends) <= total + 1e-9
        assert max(ends) >= total / servers - 1e-9
