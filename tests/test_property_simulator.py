"""Property tests of the simulation substrate: conservation laws that
must hold for any workload thrown at the cluster."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.cluster import Cluster
from repro.sim.engine import Engine
from repro.sim.machine import SHAHEEN_II
from repro.obs.events import TASK_FINISHED, Event
from repro.obs.timeline import resource_timelines


@settings(deadline=None, max_examples=40)
@given(
    st.lists(
        st.tuples(st.integers(0, 7), st.floats(0.001, 5.0)),
        min_size=1,
        max_size=40,
    )
)
def test_compute_work_is_conserved(jobs):
    """Per-proc busy time equals submitted work; makespan is bounded by
    the per-proc serial bound and the global serial bound."""
    eng = Engine()
    cl = Cluster(eng, SHAHEEN_II, 8)
    per_proc = [0.0] * 8
    done = []
    for proc, dur in jobs:
        # A completion callback makes the job an engine event, so run()
        # advances to the true makespan.
        cl.compute(proc, dur, done.append, proc)
        per_proc[proc] += dur
    end = eng.run()
    assert len(done) == len(jobs)
    for p in range(8):
        assert cl.core_busy_time(p) == pytest.approx(per_proc[p])
    assert end == pytest.approx(max(per_proc))


@settings(deadline=None, max_examples=40)
@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 10**7)),
        min_size=1,
        max_size=30,
    )
)
def test_messages_all_delivered_and_counted(msgs):
    eng = Engine()
    cl = Cluster(eng, SHAHEEN_II, 64)
    delivered = []
    for i, (src, dst, nbytes) in enumerate(msgs):
        cl.send(src, dst, nbytes, delivered.append, i)
    eng.run()
    assert sorted(delivered) == list(range(len(msgs)))
    assert cl.messages_sent == len(msgs)
    assert cl.bytes_sent == sum(m[2] for m in msgs)


@settings(deadline=None, max_examples=30)
@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(1, 10**6)),
        min_size=2,
        max_size=20,
    )
)
def test_per_pair_fifo_delivery(msgs):
    """Messages between the same (src, dst) pair arrive in send order —
    the ordering guarantee the slot-filling protocol relies on."""
    eng = Engine()
    cl = Cluster(eng, SHAHEEN_II, 64)
    arrivals: dict[tuple[int, int], list[int]] = {}
    for i, (src, dst, nbytes) in enumerate(msgs):
        cl.send(
            src, dst, nbytes,
            lambda key, i=i, k=(src, dst): arrivals.setdefault(k, []).append(i),
            None,
        )
    eng.run()
    for key, seq in arrivals.items():
        assert seq == sorted(seq), key


@settings(deadline=None, max_examples=20)
@given(st.integers(1, 64), st.integers(1, 8))
def test_trace_busy_fraction_bounded(n_jobs, procs):
    """Build a run's task events from the occupancy intervals
    ``compute`` returns and check the utilization bound: no rank is
    busy for longer than the run lasts."""
    events = []
    eng = Engine()
    cl = Cluster(eng, SHAHEEN_II, procs)
    rng = np.random.default_rng(n_jobs * 31 + procs)
    for i in range(n_jobs):
        p = int(rng.integers(procs))
        start, end = cl.compute(p, float(rng.random() + 0.01))
        events.append(
            Event(TASK_FINISHED, end, proc=p, task=i, dur=end - start)
        )
    eng.run()
    tl = resource_timelines(events)
    for p in range(tl.n_procs):
        assert tl.busy_seconds(p) <= tl.makespan * (1 + 1e-9)
    assert 0.0 < tl.utilization_mean() <= 1.0


# Delays are drawn so that same-time ties are common: zero delays land
# in the engine's due FIFO, the rest collide on the heap.
_DELAYS = st.sampled_from([0, 0, 0.5, 1, 1, 2.5])


@settings(deadline=None, max_examples=100)
@given(
    st.lists(
        st.tuples(st.integers(0, 39), st.integers(0, 3), _DELAYS),
        min_size=1,
        max_size=40,
    )
)
def test_events_fire_in_time_then_scheduling_order(nodes):
    """Against a brute-force oracle: every pending entry carries
    ``(time, scheduling counter)`` and the smallest fires next, so
    same-time events fire in the order they were scheduled, whichever
    of the heap and the due FIFO holds them.

    ``nodes`` is a random nested program, flattened: node ``i`` is a
    root scheduled at integer ``time`` when ``parent % (i + 1) == i``,
    else a child its parent's handler schedules ``delay`` later.
    """
    roots, children = [], [[] for _ in nodes]
    for i, (parent, time, delay) in enumerate(nodes):
        parent %= i + 1
        if parent == i:
            roots.append((time, i))
        else:
            children[parent].append((delay, i))

    eng = Engine()
    fired = []

    def fire(node):
        fired.append((eng.now, node))
        for delay, child in children[node]:
            eng.call_after(delay, fire, child)

    for time, node in roots:
        eng.call_at(time, fire, node)
    eng.run()

    pending = [(time, seq, node) for seq, (time, node) in enumerate(roots)]
    counter = len(pending)
    expected = []
    while pending:
        entry = min(pending)
        pending.remove(entry)
        now, _, node = entry
        expected.append((now, node))
        for delay, child in children[node]:
            pending.append((now + delay, counter, child))
            counter += 1
    assert fired == expected
