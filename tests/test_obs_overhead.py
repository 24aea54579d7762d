"""The zero-cost-when-unobserved guarantee: with no sinks attached and
tracing disabled, a run must not allocate a single Event object.

Enforced by poisoning the constructors — any allocation raises, so the
guard fails loudly if an emission site loses its ``if obs:`` check.
"""

import pytest

from repro.core.payload import Payload
from repro.graphs import Reduction
from repro.obs import ListSink
from repro.obs.events import TASK_FINISHED, Event
from repro.runtimes import (
    CharmController,
    LegionIndexController,
    LegionSPMDController,
    MPIController,
    SerialController,
)

ALL = [
    SerialController,
    lambda: MPIController(4),
    lambda: CharmController(4),
    lambda: LegionSPMDController(4),
    lambda: LegionIndexController(4),
]
IDS = ["serial", "mpi", "charm", "legion-spmd", "legion-index"]


def run_reduction(controller):
    g = Reduction(16, 4)
    controller.initialize(g, None)
    controller.register_callback(g.LEAF, lambda ins, tid: [ins[0]])
    add = lambda ins, tid: [Payload(sum(p.data for p in ins))]
    controller.register_callback(g.REDUCE, add)
    controller.register_callback(g.ROOT, add)
    return g, controller.run(
        {t: Payload(i + 1) for i, t in enumerate(g.leaf_ids())}
    )


@pytest.fixture
def poisoned(monkeypatch):
    """Make any Event construction raise."""

    def boom_event(self, *a, **k):
        raise AssertionError("Event allocated on an unobserved run")

    monkeypatch.setattr(Event, "__init__", boom_event)


@pytest.mark.parametrize("ctor", ALL, ids=IDS)
def test_unobserved_run_allocates_no_events_or_spans(ctor, poisoned):
    g, result = run_reduction(ctor())
    assert result.stats.tasks_executed == g.size()
    # Metrics stay on even when events are off.
    assert result.metrics is not None
    assert result.metrics.counter("tasks_executed") == g.size()


def test_poison_actually_fires_when_observed(poisoned):
    c = MPIController(4)
    c.add_sink(ListSink())
    with pytest.raises(AssertionError, match="unobserved run"):
        run_reduction(c)


@pytest.mark.parametrize("ctor", ALL, ids=IDS)
def test_event_poison_sees_every_observed_backend(ctor, poisoned):
    """``Event`` is a named tuple, built in ``__new__``: the ``__init__``
    poison fires only because emission sites *call the class* (a site
    switched to ``Event._make`` or ``tuple.__new__`` would slip past
    it).  Every backend's observed run must trip it, or the unobserved
    checks above have gone blind."""
    c = ctor()
    c.add_sink(ListSink())
    with pytest.raises(AssertionError, match="unobserved run"):
        run_reduction(c)


def test_collect_trace_allocates_spans_only_when_asked(poisoned):
    # A kept trace is a ListSink handed over through sinks=, so asking
    # for one is what makes a run allocate its events.
    with pytest.raises(AssertionError, match="unobserved run"):
        run_reduction(MPIController(4, sinks=[ListSink()]))


def test_list_sink_keeps_the_run_events():
    sink = ListSink()
    g, _ = run_reduction(MPIController(4, sinks=[sink]))
    finished = [e for e in sink.events if e.type == TASK_FINISHED]
    assert len(finished) == g.size()


@pytest.fixture
def poisoned_labels(monkeypatch):
    """Make any task/edge label construction raise.

    Event labels are plain strings, so the Event poison above
    cannot see them; poisoning the label builders proves the hot path
    does not even *format* a label when nobody is observing.
    """
    import repro.runtimes.dataflow as dataflow
    import repro.sim.cluster as cluster

    def boom(*a, **k):
        raise AssertionError("label built on an unobserved run")

    monkeypatch.setattr(dataflow, "_task_label", boom)
    monkeypatch.setattr(cluster, "_edge_label", boom)


@pytest.mark.parametrize("ctor", ALL, ids=IDS)
def test_unobserved_run_builds_no_label_strings(ctor, poisoned_labels):
    g, result = run_reduction(ctor())
    assert result.stats.tasks_executed == g.size()


def test_label_poison_actually_fires_when_observed(poisoned_labels):
    c = MPIController(4)
    c.add_sink(ListSink())
    with pytest.raises(AssertionError, match="label built"):
        run_reduction(c)


@pytest.fixture
def poisoned_parents(monkeypatch):
    """Make any causal-parent accumulator allocation raise.

    Span-context threading (Event.parents) is opt-in per sink
    (``wants_context``); these poisons prove the per-deposit parent
    tracking never runs unless a sink explicitly asked for it.
    """
    import repro.runtimes.dataflow as dataflow
    import repro.runtimes.serial as serial

    def boom(*a, **k):
        raise AssertionError("parent list built without a context sink")

    monkeypatch.setattr(dataflow, "_parent_list", boom)
    monkeypatch.setattr(serial, "_parent_list", boom)


@pytest.mark.parametrize("ctor", ALL, ids=IDS)
def test_unobserved_run_tracks_no_causal_parents(ctor, poisoned_parents):
    g, result = run_reduction(ctor())
    assert result.stats.tasks_executed == g.size()


@pytest.mark.parametrize("ctor", ALL, ids=IDS)
def test_plain_sink_tracks_no_causal_parents(ctor, poisoned_parents):
    # A sink without wants_context must keep the historical event
    # shapes: no parents field populated, no tracking cost paid.
    c = ctor()
    sink = ListSink()
    c.add_sink(sink)
    g, result = run_reduction(c)
    assert result.stats.tasks_executed == g.size()
    assert all(e.parents == () for e in sink.events)


@pytest.mark.parametrize("ctor", ALL, ids=IDS)
def test_parent_poison_fires_with_context_sink(ctor, poisoned_parents):
    c = ctor()
    c.add_sink(ListSink(wants_context=True))
    with pytest.raises(AssertionError, match="parent list built"):
        run_reduction(c)


@pytest.fixture
def poisoned_telemetry(monkeypatch):
    """Make any telemetry object construction raise.

    The telemetry layer (sketches, the flight recorder and its ring)
    is strictly opt-in via ``telemetry=``; these poisons prove a clean
    run — observed or not — constructs none of it.
    """
    import repro.obs.telemetry.flight as flight
    from repro.obs.telemetry import FlightRecorder, QuantileSketch

    def boom(what):
        def _boom(*a, **k):
            raise AssertionError(f"{what} constructed without telemetry=")

        return _boom

    monkeypatch.setattr(QuantileSketch, "__init__", boom("QuantileSketch"))
    monkeypatch.setattr(FlightRecorder, "__init__", boom("FlightRecorder"))
    # The recorder's ring buffer, via the flight module's own deque ref
    # (poisoning collections.deque itself would break the controllers'
    # legitimate ready queues).
    monkeypatch.setattr(flight, "deque", boom("flight-recorder ring"))


@pytest.mark.parametrize("ctor", ALL, ids=IDS)
def test_clean_run_constructs_no_telemetry(ctor, poisoned_telemetry):
    g, result = run_reduction(ctor())
    assert result.stats.tasks_executed == g.size()
    assert result.metrics.sketches == {}


@pytest.mark.parametrize("ctor", ALL, ids=IDS)
def test_observed_run_constructs_no_telemetry(ctor, poisoned_telemetry):
    # Event observation alone must not drag the telemetry layer in.
    c = ctor()
    c.add_sink(ListSink())
    g, result = run_reduction(c)
    assert result.stats.tasks_executed == g.size()
    assert result.metrics.sketches == {}


@pytest.mark.parametrize(
    "ctor",
    [
        lambda: SerialController(telemetry=True),
        lambda: MPIController(4, telemetry=True),
    ],
    ids=["serial", "mpi"],
)
def test_telemetry_poison_fires_when_opted_in(ctor, poisoned_telemetry):
    with pytest.raises(AssertionError, match="constructed without"):
        run_reduction(ctor())


@pytest.fixture
def poisoned_live(monkeypatch):
    """Make any live-plane object construction raise.

    The live observability plane (its sink and status writer) is
    strictly opt-in via ``live=`` or ``$REPRO_LIVE_DIR``; these poisons
    prove a clean run — sink-observed or not — constructs none of it.
    """
    from repro.obs.live import LiveStatus, StatusWriter

    monkeypatch.delenv("REPRO_LIVE_DIR", raising=False)

    def boom(what):
        def _boom(*a, **k):
            raise AssertionError(f"{what} constructed without live=")

        return _boom

    monkeypatch.setattr(LiveStatus, "__init__", boom("LiveStatus"))
    monkeypatch.setattr(StatusWriter, "__init__", boom("StatusWriter"))


def _local_inline():
    from repro.runtimes.local import LocalPoolController

    return LocalPoolController(2, mode="inline")


LIVE_ALL = ALL + [_local_inline]
LIVE_IDS = IDS + ["local-inline"]


@pytest.mark.parametrize("ctor", LIVE_ALL, ids=LIVE_IDS)
def test_clean_run_constructs_no_live_plane(ctor, poisoned_live):
    g, result = run_reduction(ctor())
    assert result.stats.tasks_executed == g.size()


@pytest.mark.parametrize("ctor", LIVE_ALL, ids=LIVE_IDS)
def test_observed_run_constructs_no_live_plane(ctor, poisoned_live):
    # Sink observation alone must not drag the live plane in.
    c = ctor()
    c.add_sink(ListSink())
    g, result = run_reduction(c)
    assert result.stats.tasks_executed == g.size()


@pytest.mark.parametrize(
    "ctor",
    [
        lambda live: MPIController(4, live=live),
        lambda live: __import__(
            "repro.runtimes.local", fromlist=["LocalPoolController"]
        ).LocalPoolController(2, mode="inline", live=live),
    ],
    ids=["mpi", "local-inline"],
)
def test_live_poison_fires_when_opted_in(ctor, poisoned_live, tmp_path):
    with pytest.raises(AssertionError, match="constructed without"):
        run_reduction(ctor(str(tmp_path)))


def _scheduled_runs():
    """Unobserved runs that exercise every scheduler emission site:
    planned placement, periodic migration, and work stealing."""
    from repro.core.taskmap import RangeMap
    from repro.sched import (
        PeriodicGreedyBalancer,
        WorkStealingBalancer,
        plan_placement,
    )

    g = Reduction(16, 4)
    pinned = RangeMap(4, [0] * g.size())
    return [
        ("planned", MPIController(4), plan_placement(g, 4)),
        (
            "stealing",
            MPIController(4, balancer=WorkStealingBalancer()),
            pinned,
        ),
        (
            "periodic",
            MPIController(
                4,
                balancer=PeriodicGreedyBalancer(
                    period=1e-6, round_cost=1e-9
                ),
            ),
            pinned,
        ),
    ]


def run_scheduled(name):
    for n, c, tmap in _scheduled_runs():
        if n != name:
            continue
        g = Reduction(16, 4)
        c.initialize(g, tmap)
        c.register_callback(g.LEAF, lambda ins, tid: [ins[0]])
        add = lambda ins, tid: [Payload(sum(p.data for p in ins))]
        c.register_callback(g.REDUCE, add)
        c.register_callback(g.ROOT, add)
        return c, g, c.run(
            {t: Payload(i + 1) for i, t in enumerate(g.leaf_ids())}
        )
    raise KeyError(name)


SCHED_IDS = ["planned", "stealing", "periodic"]


@pytest.mark.parametrize("name", SCHED_IDS)
def test_unobserved_scheduler_paths_allocate_no_events(name, poisoned):
    _, g, result = run_scheduled(name)
    assert result.stats.tasks_executed == g.size()


@pytest.mark.parametrize("name", SCHED_IDS)
def test_unobserved_scheduler_paths_build_no_labels(name, poisoned_labels):
    _, g, result = run_scheduled(name)
    assert result.stats.tasks_executed == g.size()


@pytest.mark.parametrize("name", ["stealing", "periodic"])
def test_scheduler_poison_fires_when_observed(name, poisoned):
    from repro.core.taskmap import RangeMap
    from repro.sched import PeriodicGreedyBalancer, WorkStealingBalancer

    bal = (
        WorkStealingBalancer()
        if name == "stealing"
        else PeriodicGreedyBalancer(period=1e-6, round_cost=1e-9)
    )
    c = MPIController(4, balancer=bal)
    c.add_sink(ListSink())
    g = Reduction(16, 4)
    c.initialize(g, RangeMap(4, [0] * g.size()))
    c.register_callback(g.LEAF, lambda ins, tid: [ins[0]])
    add = lambda ins, tid: [Payload(sum(p.data for p in ins))]
    c.register_callback(g.REDUCE, add)
    c.register_callback(g.ROOT, add)
    with pytest.raises(AssertionError, match="unobserved run"):
        c.run({t: Payload(i + 1) for i, t in enumerate(g.leaf_ids())})
