"""Tests for the discrete-event engine."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import SimulationError
from repro.sim.engine import Engine


class TestScheduling:
    def test_events_fire_in_time_order(self):
        eng = Engine()
        log = []
        eng.call_after(2.0, log.append, "b")
        eng.call_after(1.0, log.append, "a")
        eng.call_after(3.0, log.append, "c")
        eng.run()
        assert log == ["a", "b", "c"]
        assert eng.now == 3.0

    def test_ties_fire_in_schedule_order(self):
        eng = Engine()
        log = []
        for i in range(10):
            eng.call_at(1.0, log.append, i)
        eng.run()
        assert log == list(range(10))

    def test_handlers_can_schedule_more(self):
        eng = Engine()
        log = []

        def chain(n):
            log.append(n)
            if n < 5:
                eng.call_after(1.0, chain, n + 1)

        eng.call_after(0.0, chain, 0)
        eng.run()
        assert log == [0, 1, 2, 3, 4, 5]
        assert eng.now == 5.0

    def test_past_scheduling_rejected(self):
        eng = Engine()
        eng.call_after(1.0, lambda: None)
        eng.run()
        with pytest.raises(SimulationError):
            eng.call_at(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Engine().call_after(-1.0, lambda: None)

    def test_not_reentrant(self):
        eng = Engine()

        def recurse():
            eng.run()

        eng.call_after(0.0, recurse)
        with pytest.raises(SimulationError):
            eng.run()

    @given(st.lists(st.floats(0, 100, allow_nan=False), max_size=50))
    def test_time_is_monotone(self, delays):
        eng = Engine()
        times = []
        for d in delays:
            eng.call_after(d, lambda: times.append(eng.now))
        eng.run()
        assert times == sorted(times)


class TestDueFifoAndReplay:
    """The two heap-free fast paths: the already-due FIFO and replay."""

    def test_call_now_orders_after_due_and_before_future(self):
        eng = Engine()
        log = []

        def handler():
            # Scheduled *while handling* an event at t=1: fires at t=1,
            # after everything already due, before the t=2 event.
            eng.call_at(eng.now, log.append, "now")

        eng.call_at(1.0, handler)
        eng.call_at(1.0, log.append, "due")
        eng.call_at(2.0, log.append, "later")
        eng.run()
        assert log == ["due", "now", "later"]
        assert eng.now == 2.0

    def test_call_at_current_time_routes_to_fifo(self):
        eng = Engine()
        log = []

        def handler():
            t = eng.call_at(eng.now, log.append, "rerouted")
            assert t == eng.now
            assert len(eng._due) == 1  # skipped the heap

        eng.call_at(1.0, handler)
        eng.run()
        assert log == ["rerouted"]

    def test_due_fifo_interleaves_with_heap_ties(self):
        # FIFO and heap entries at the same timestamp fire in seq order
        # regardless of which container holds them.
        eng = Engine()
        log = []

        def handler():
            eng.call_at(eng.now, log.append, 1)  # seq k   (FIFO)
            eng.call_at(1.0, log.append, 2)  # seq k+1 (FIFO: t == now)
            eng.call_at(1.5, log.append, 3)  # heap
            eng.call_at(eng.now, log.append, 4)  # seq k+3 — after the pops?

        eng.call_at(1.0, handler)
        eng.run()
        assert log == [1, 2, 4, 3]

    def test_replay_fires_static_schedule(self):
        eng = Engine()
        log = []
        end = eng.replay(
            [(0.0, log.append, ("a",)), (1.0, log.append, ("b",)),
             (1.0, log.append, ("c",))]
        )
        assert log == ["a", "b", "c"]
        assert end == 1.0 and eng.now == 1.0

    def test_replay_merges_dynamic_events(self):
        eng = Engine()
        log = []

        def spawn(tag):
            log.append(tag)
            # Dynamic events scheduled mid-replay: one strictly before
            # the next static entry (fires mid-replay), one at the same
            # time as a later static entry (reserved seq block means the
            # static entry wins), one after the schedule (left queued).
            if tag == "s0":
                eng.call_after(0.5, log.append, "dyn-mid")
                eng.call_after(2.0, log.append, "dyn-tie")
                eng.call_after(5.0, log.append, "dyn-late")

        eng.replay(
            [(0.0, spawn, ("s0",)), (1.0, log.append, ("s1",)),
             (2.0, log.append, ("s2",))]
        )
        # dyn-tie (t=2.0) has seq >= base+n, so it orders *after* the
        # static s2 entry at the same time — and fires only in run().
        assert log == ["s0", "dyn-mid", "s1", "s2"]
        eng.run()
        assert log == ["s0", "dyn-mid", "s1", "s2", "dyn-tie", "dyn-late"]

    def test_replay_same_time_dynamic_fires_in_seq_order(self):
        # A dynamic event spawned at the *current* entry's time still
        # waits for every remaining static entry at that time.
        eng = Engine()
        log = []

        def spawn():
            log.append("s0")
            eng.call_at(eng.now, log.append, "dyn")

        eng.replay([(1.0, spawn, ()), (1.0, log.append, ("s1",))])
        assert log == ["s0", "s1"]
        eng.run()
        assert log == ["s0", "s1", "dyn"]

    def test_replay_validation(self):
        eng = Engine()
        eng.call_at(1.0, lambda: None)
        eng.run()  # now == 1.0
        with pytest.raises(SimulationError):
            eng.replay([(0.5, lambda: None, ())])  # in the past
        with pytest.raises(SimulationError):
            eng.replay(
                [(3.0, lambda: None, ()), (2.0, lambda: None, ())]
            )  # unsorted

    def test_replay_not_reentrant(self):
        eng = Engine()

        def recurse():
            eng.replay([(1.0, lambda: None, ())])

        with pytest.raises(SimulationError):
            eng.replay([(0.0, recurse, ())])

    def test_replay_empty_schedule(self):
        eng = Engine()
        assert eng.replay([]) == 0.0

    def test_replay_equivalent_to_call_at(self):
        # The whole point: replay(batch) ≡ scheduling the batch up front.
        def drive(engine, schedule):
            log = []
            def spawn(i):
                log.append(("s", i, engine.now))
                if i % 3 == 0:
                    engine.call_after(0.25, log.append, ("d", i))
            return log, [(t, spawn, (i,)) for i, t in enumerate(schedule)]

        schedule = [0.0, 0.0, 0.5, 0.5, 1.0, 2.0, 2.0, 2.0]
        e1 = Engine()
        log1, entries1 = drive(e1, schedule)
        for t, fn, args in entries1:
            e1.call_at(t, fn, *args)
        e1.run()
        e2 = Engine()
        log2, entries2 = drive(e2, schedule)
        e2.replay(entries2)
        e2.run()
        assert log1 == log2


def test_surface_is_what_the_controllers_call():
    # Two ways to schedule, one loop, and replay for the ledger probe.
    public = [n for n in dir(Engine) if not n.startswith("_")]
    assert public == ["call_after", "call_at", "now", "replay", "run"]
