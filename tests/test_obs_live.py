"""The live observability plane: bus, tracker, writer, end-to-end.

``tests/test_obs_overhead.py`` proves the *absence* of this machinery
on unarmed runs; this file proves its presence does what it claims —
bounded drop-counting pub/sub, progress/ETA folding, straggler and
stall detection, atomic status snapshots an out-of-process watcher can
read mid-run, and (critically) that arming it changes nothing about
the recorded event stream.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.core.payload import Payload
from repro.graphs import Reduction
from repro.obs import ListSink, ObsHub
from repro.obs.events import (
    LIVE_VOCABULARY,
    RUN_FINISHED,
    RUN_STARTED,
    TASK_ENQUEUED,
    TASK_FINISHED,
    TASK_RUNNING,
    TASK_STARTED,
    VOCABULARY,
    WORKER_HEARTBEAT,
    Event,
)
from repro.obs.live import (
    LiveBus,
    LiveConfig,
    ProgressTracker,
    StragglerDetector,
    attach_live,
    find_status,
    read_status,
    render_status,
)
from repro.runtimes import LocalPoolController, MPIController
from repro.sched import UniformEstimate


# ---------------------------------------------------------------------- #
# Bus
# ---------------------------------------------------------------------- #


class TestLiveBus:
    def test_publish_drain_round_trip_preserves_order(self):
        bus = LiveBus()
        sub = bus.subscribe()
        events = [Event(TASK_STARTED, t=float(i), task=i) for i in range(5)]
        for ev in events:
            bus.publish(ev)
        assert sub.drain() == events
        assert sub.drain() == []

    def test_full_queue_evicts_oldest_and_counts_drops(self):
        bus = LiveBus()
        sub = bus.subscribe(maxlen=3)
        for i in range(10):
            bus.publish(Event(TASK_STARTED, t=float(i), task=i))
        assert sub.dropped == 7
        assert [e.task for e in sub.drain()] == [7, 8, 9]

    def test_each_subscriber_gets_every_event(self):
        bus = LiveBus()
        a, b = bus.subscribe(), bus.subscribe()
        bus.publish(Event(TASK_STARTED, t=0.0, task=1))
        assert len(a.drain()) == 1 and len(b.drain()) == 1

    def test_unsubscribe_stops_delivery(self):
        bus = LiveBus()
        sub = bus.subscribe()
        bus.unsubscribe(sub)
        assert not bus.active
        bus.publish(Event(TASK_STARTED, t=0.0, task=1))
        assert sub.drain() == []
        bus.unsubscribe(sub)  # idempotent

    def test_closed_subscription_rejects_offers(self):
        bus = LiveBus()
        sub = bus.subscribe()
        sub.close()
        bus.publish(Event(TASK_STARTED, t=0.0, task=1))
        assert len(sub) == 0

    def test_queue_bound_must_be_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            LiveBus().subscribe(maxlen=0)

    def test_drain_cap_leaves_the_rest_queued(self):
        bus = LiveBus()
        sub = bus.subscribe()
        for i in range(5):
            bus.publish(Event(TASK_STARTED, t=float(i), task=i))
        assert [e.task for e in sub.drain(max_events=2)] == [0, 1]
        assert [e.task for e in sub.drain()] == [2, 3, 4]

    def test_concurrent_publish_loses_nothing_under_capacity(self):
        bus = LiveBus()
        sub = bus.subscribe(maxlen=10_000)
        n, threads = 500, []
        for t in range(4):
            threads.append(
                threading.Thread(
                    target=lambda: [
                        bus.publish(Event(TASK_STARTED, t=0.0, task=i))
                        for i in range(n)
                    ]
                )
            )
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert len(sub.drain()) == 4 * n
        assert sub.dropped == 0


class TestHubBusTap:
    def test_hub_with_only_a_bus_is_truthy(self):
        assert not ObsHub(())
        assert ObsHub((), bus=LiveBus())

    def test_emit_reaches_sinks_and_bus(self):
        sink, bus = ListSink(), LiveBus()
        sub = bus.subscribe()
        hub = ObsHub((sink,), bus=bus)
        ev = Event(TASK_STARTED, t=1.0, task=3)
        hub.emit(ev)
        assert sink.events == [ev]
        assert sub.drain() == [ev]

    def test_live_vocabulary_stays_out_of_the_sink_vocabulary(self):
        # TASK_RUNNING / WORKER_HEARTBEAT exist only on the bus; the
        # recorded stream (and every golden built from it) never sees
        # them.
        assert LIVE_VOCABULARY == {TASK_RUNNING, WORKER_HEARTBEAT}
        assert not (LIVE_VOCABULARY & VOCABULARY)


# ---------------------------------------------------------------------- #
# Detector + tracker
# ---------------------------------------------------------------------- #


class TestStragglerDetector:
    def test_planned_estimate_wins_over_median(self):
        det = StragglerDetector({7: 2.0}, factor=3.0, min_seconds=0.0)
        det.observe_completed(0.1)
        assert det.expected(7) == 2.0
        assert det.threshold(7) == 6.0

    def test_median_fallback_for_unestimated_tasks(self):
        det = StragglerDetector(factor=2.0, min_seconds=0.0)
        for dur in (1.0, 5.0, 3.0):
            det.observe_completed(dur)
        assert det.expected(99) == 3.0
        assert det.threshold(99) == 6.0

    def test_abstains_with_no_information(self):
        det = StragglerDetector()
        assert det.expected(1) is None
        assert det.threshold(1) is None

    def test_min_seconds_floors_tiny_thresholds(self):
        det = StragglerDetector({1: 1e-6}, factor=4.0, min_seconds=0.05)
        assert det.threshold(1) == 0.05


class TestProgressTracker:
    def _feed(self, tracker, events):
        for ev in events:
            tracker.observe(ev)

    def test_counts_and_progress(self):
        tr = ProgressTracker(total=4, n_ranks=2)
        self._feed(
            tr,
            [
                Event(RUN_STARTED, t=0.0, label="demo"),
                Event(TASK_ENQUEUED, t=0.0, task=0),
                Event(TASK_ENQUEUED, t=0.0, task=1),
                Event(TASK_STARTED, t=0.1, proc=0, task=0),
                Event(TASK_FINISHED, t=0.3, proc=0, task=0, dur=0.2),
            ],
        )
        assert tr.done == 1 and tr.queued == 1
        assert tr.progress() == 0.25
        assert tr.run_label == "demo"
        assert tr.running == {}

    def test_failed_attempts_are_not_progress(self):
        tr = ProgressTracker(total=2)
        self._feed(
            tr,
            [
                Event(TASK_STARTED, t=0.0, proc=0, task=0),
                Event(
                    TASK_FINISHED, t=0.1, proc=0, task=0, dur=0.1,
                    label="t0 (failed attempt)",
                ),
            ],
        )
        assert tr.done == 0
        self._feed(
            tr,
            [
                Event(TASK_STARTED, t=0.2, proc=0, task=0),
                Event(TASK_FINISHED, t=0.3, proc=0, task=0, dur=0.1),
            ],
        )
        assert tr.done == 1

    def test_run_finished_clears_running_and_sets_makespan(self):
        tr = ProgressTracker(total=1)
        self._feed(
            tr,
            [
                Event(TASK_STARTED, t=0.0, proc=0, task=0),
                Event(RUN_FINISHED, t=1.5, dur=1.5),
            ],
        )
        assert tr.finished and tr.makespan == 1.5 and not tr.running

    def test_eta_from_completion_rate(self):
        tr = ProgressTracker(total=4)
        self._feed(
            tr,
            [
                Event(TASK_FINISHED, t=1.0, proc=0, task=0, dur=1.0),
                Event(TASK_FINISHED, t=2.0, proc=0, task=1, dur=1.0),
            ],
        )
        # 2 done in 2s -> 1 task/s -> 2 remaining ~ 2s.
        assert tr.eta(2.0) == pytest.approx(2.0)

    def test_eta_is_weighted_by_expected_work(self):
        det = StragglerDetector({0: 1.0, 1: 1.0, 2: 8.0})
        tr = ProgressTracker(total=3, detector=det)
        self._feed(
            tr,
            [
                Event(TASK_FINISHED, t=1.0, proc=0, task=0, dur=1.0),
                Event(TASK_FINISHED, t=2.0, proc=0, task=1, dur=1.0),
            ],
        )
        # 2.0 expected-seconds done in 2s; 8.0 expected remain -> ~8s,
        # not the count-based (1 remaining / 1 per s) = 1s.
        assert tr.eta(2.0) == pytest.approx(8.0)

    def test_eta_abstains_before_first_completion(self):
        tr = ProgressTracker(total=4)
        assert tr.eta(1.0) is None

    def test_straggler_alert_is_sticky(self):
        det = StragglerDetector({5: 0.1}, factor=2.0, min_seconds=0.0)
        tr = ProgressTracker(total=2, detector=det)
        tr.observe(Event(TASK_STARTED, t=0.0, proc=1, task=5))
        assert tr.check(now=0.1) == []
        fresh = tr.check(now=0.5)
        assert [a.kind for a in fresh] == ["straggler"]
        assert fresh[0].task == 5 and fresh[0].rank == 1
        assert fresh[0].threshold == pytest.approx(0.2)
        # Re-checking reports nothing new but the alert stands...
        assert tr.check(now=0.6) == []
        assert len(tr.alerts) == 1
        # ...even after the task eventually finishes.
        tr.observe(Event(TASK_FINISHED, t=0.7, proc=1, task=5, dur=0.7))
        assert len(tr.alerts) == 1

    def test_stall_alert_clears_when_heartbeat_resumes(self):
        tr = ProgressTracker(total=2, heartbeat_timeout=1.0)
        tr.observe(Event(WORKER_HEARTBEAT, t=0.0, proc=3))
        assert [a.kind for a in tr.check(now=2.0)] == ["stall"]
        assert len(tr.alerts) == 1
        tr.observe(Event(WORKER_HEARTBEAT, t=2.5, proc=3))
        assert tr.check(now=3.0) == []
        assert tr.alerts == []

    def test_snapshot_is_json_serializable(self):
        det = StragglerDetector({0: 1.0})
        tr = ProgressTracker(total=3, n_ranks=2, detector=det)
        self._feed(
            tr,
            [
                Event(RUN_STARTED, t=0.0, label="snap"),
                Event(TASK_STARTED, t=0.1, proc=0, task=0),
                Event(TASK_FINISHED, t=0.4, proc=0, task=0, dur=0.3),
                Event(TASK_STARTED, t=0.4, proc=1, task=1),
                Event(WORKER_HEARTBEAT, t=0.5, proc=1),
            ],
        )
        tr.check(now=0.6)
        doc = json.loads(json.dumps(tr.snapshot(now=0.6)))
        assert doc["done"] == 1 and doc["total"] == 3
        assert doc["running"][0]["task"] == 1
        assert {r["rank"] for r in doc["ranks"]} == {0, 1}
        # render_status accepts the same dict (smoke the terminal view).
        text = render_status({"pid": 1, "state": "running", **doc})
        assert "1/3 tasks" in text


# ---------------------------------------------------------------------- #
# Config + arming gate
# ---------------------------------------------------------------------- #


class TestLiveConfig:
    def test_coerce_accepts_the_documented_shapes(self, tmp_path):
        assert LiveConfig.coerce(None) is None
        assert LiveConfig.coerce(False) is None
        assert LiveConfig.coerce(True) == LiveConfig()
        assert LiveConfig.coerce(str(tmp_path)).dir == str(tmp_path)
        assert LiveConfig.coerce({"interval": 0.1}).interval == 0.1
        cfg = LiveConfig(interval=0.5)
        assert LiveConfig.coerce(cfg) is cfg
        with pytest.raises(TypeError, match="live must be"):
            LiveConfig.coerce(3.14)

    def test_unarmed_attach_returns_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_LIVE_DIR", raising=False)
        assert attach_live(None, total=1, runtime="x") is None

    def test_env_var_arms_attach(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LIVE_DIR", str(tmp_path))
        live = attach_live(None, total=1, runtime="x")
        assert live is not None and live.writer is not None
        live.close("finished")
        assert find_status(str(tmp_path))


# ---------------------------------------------------------------------- #
# Writer + status files
# ---------------------------------------------------------------------- #


class TestStatusWriter:
    def test_round_trip_through_the_status_file(self, tmp_path):
        live = attach_live(
            LiveConfig(dir=str(tmp_path), interval=0.01),
            total=2,
            runtime="TestRuntime",
            n_ranks=1,
        )
        live.bus.publish(Event(TASK_STARTED, t=0.1, proc=0, task=0))
        live.bus.publish(
            Event(TASK_FINISHED, t=0.5, proc=0, task=0, dur=0.4)
        )
        live.close("finished")
        paths = find_status(str(tmp_path))
        assert len(paths) == 1
        doc = read_status(paths[0])
        assert doc["state"] == "finished"
        assert doc["runtime"] == "TestRuntime"
        assert doc["done"] == 1 and doc["total"] == 2
        assert doc["pid"] == os.getpid()

    def test_read_status_raises_on_corrupt_json(self, tmp_path):
        p = tmp_path / "live-1.json"
        p.write_text("{not json")
        with pytest.raises(ValueError, match="corrupt"):
            read_status(str(p))

    def test_find_status_raises_on_missing_and_empty(self, tmp_path):
        with pytest.raises(ValueError, match="no such file"):
            find_status(str(tmp_path / "nope"))
        with pytest.raises(ValueError, match="no live status"):
            find_status(str(tmp_path))


# ---------------------------------------------------------------------- #
# End-to-end, simulated backends
# ---------------------------------------------------------------------- #


def _leaf(ins, tid):
    return [ins[0]]


def _add(ins, tid):
    return [Payload(sum(p.data for p in ins))]


def _run_reduction(controller, sink=None):
    g = Reduction(16, 4)
    if sink is not None:
        controller.add_sink(sink)
    controller.initialize(g, None)
    controller.register_callback(g.LEAF, _leaf)
    controller.register_callback(g.REDUCE, _add)
    controller.register_callback(g.ROOT, _add)
    return g, controller.run(
        {t: Payload(i + 1) for i, t in enumerate(g.leaf_ids())}
    )


class TestEndToEndSim:
    def test_sim_run_writes_a_finished_snapshot(self, tmp_path):
        g, result = _run_reduction(MPIController(4, live=str(tmp_path)))
        doc = read_status(find_status(str(tmp_path))[0])
        assert doc["state"] == "finished"
        assert doc["done"] == doc["total"] == g.size()
        assert doc["progress"] == 1.0 and doc["finished"]
        assert doc["makespan"] == pytest.approx(result.stats.makespan)
        assert len(doc["ranks"]) == 4

    def test_metrics_ride_along_when_telemetry_is_on(self, tmp_path):
        _run_reduction(MPIController(4, live=str(tmp_path), telemetry=True))
        doc = read_status(find_status(str(tmp_path))[0])
        assert doc["metrics"]["counters"]["tasks_executed"] == 21
        assert "task_seconds" in doc["metrics"]["sketches"]

    def test_arming_live_leaves_the_event_stream_bit_identical(self):
        plain, armed = ListSink(), ListSink()
        _run_reduction(MPIController(4), sink=plain)
        live_bus = LiveBus()
        _run_reduction(
            MPIController(4, live=LiveConfig(bus=live_bus)), sink=armed
        )
        assert [e.to_dict() for e in plain.events] == [
            e.to_dict() for e in armed.events
        ]

    def test_in_process_bus_subscription_sees_the_run(self):
        bus = LiveBus()
        sub = bus.subscribe()
        g, _ = _run_reduction(MPIController(4, live=LiveConfig(bus=bus)))
        events = sub.drain()
        finished = [e for e in events if e.type == TASK_FINISHED]
        assert len(finished) == g.size()

    def test_aborted_run_stamps_the_terminal_state(self, tmp_path):
        c = MPIController(4, live=str(tmp_path))
        g = Reduction(16, 4)
        c.initialize(g, None)
        c.register_callback(g.LEAF, _leaf)

        def boom(ins, tid):
            raise RuntimeError("kaboom")

        c.register_callback(g.REDUCE, boom)
        c.register_callback(g.ROOT, _add)
        with pytest.raises(Exception):
            c.run({t: Payload(i + 1) for i, t in enumerate(g.leaf_ids())})
        doc = read_status(find_status(str(tmp_path))[0])
        assert doc["state"] == "aborted"


# ---------------------------------------------------------------------- #
# End-to-end, local (real-core) backend
# ---------------------------------------------------------------------- #


#: The designated straggler: the first leaf of ``Reduction(8, 2)``.
_SLOW_TID = 7


def _slow_leaf(ins, tid):
    # One leaf runs ~25x its siblings.
    time.sleep(0.5 if tid == _SLOW_TID else 0.02)
    return [ins[0]]


@pytest.mark.parallel
class TestEndToEndLocal:
    def test_thread_run_flags_the_injected_straggler(self, tmp_path):
        cfg = LiveConfig(
            dir=str(tmp_path),
            interval=0.05,
            estimate=UniformEstimate(seconds=0.02),
            straggler_factor=4.0,
            min_straggler_seconds=0.01,
        )
        g = Reduction(8, 2)
        c = LocalPoolController(2, mode="thread", live=cfg)
        c.initialize(g, None)
        c.register_callback(g.LEAF, _slow_leaf)
        c.register_callback(g.REDUCE, _add)
        c.register_callback(g.ROOT, _add)
        c.run({t: Payload(i + 1) for i, t in enumerate(g.leaf_ids())})
        doc = read_status(find_status(str(tmp_path))[0])
        assert doc["state"] == "finished"
        assert doc["done"] == g.size()
        stragglers = [
            a for a in doc["alerts"] if a["kind"] == "straggler"
        ]
        assert [a["task"] for a in stragglers] == [_SLOW_TID]
        assert stragglers[0]["seconds"] > stragglers[0]["threshold"]

    def test_process_run_reports_worker_heartbeats(self, tmp_path):
        cfg = LiveConfig(
            dir=str(tmp_path), interval=0.05, heartbeat_interval=0.05
        )
        g, _ = _run_reduction(
            LocalPoolController(2, mode="process", live=cfg)
        )
        doc = read_status(find_status(str(tmp_path))[0])
        assert doc["state"] == "finished" and doc["done"] == g.size()
        beating = [
            r for r in doc["ranks"] if r["heartbeat_age"] is not None
        ]
        assert beating  # real worker processes reported liveness

    def test_inline_run_round_trips_too(self, tmp_path):
        g, _ = _run_reduction(
            LocalPoolController(2, mode="inline", live=str(tmp_path))
        )
        doc = read_status(find_status(str(tmp_path))[0])
        assert doc["done"] == g.size() and doc["state"] == "finished"


@pytest.mark.parallel
@pytest.mark.parametrize(
    "ctor",
    [
        lambda cfg: MPIController(4, live=cfg),
        lambda cfg: LocalPoolController(2, mode="process", live=cfg),
    ],
    ids=["mpi", "local-process"],
)
def test_bus_and_sinks_are_handed_the_same_records(ctor):
    """``ObsHub.emit`` gives one ``Event`` to the sinks and to the bus, so
    a subscriber's stream minus the live-only vocabulary *is* the
    recorded stream; what the process pool's worker->coordinator channel
    adds are ordinary ``Event`` records too."""
    bus = LiveBus()
    sub = bus.subscribe(maxlen=100_000)
    sink = ListSink()
    g, _ = _run_reduction(
        ctor(LiveConfig(bus=bus, heartbeat_interval=0.05)), sink=sink
    )
    live = sub.drain()
    assert sub.dropped == 0
    assert all(type(e) is Event for e in live)
    assert [e for e in live if e.type not in LIVE_VOCABULARY] == sink.events
    assert {e.type for e in sink.events}.isdisjoint(LIVE_VOCABULARY)
    for e in live:
        if e.type == TASK_RUNNING:
            assert e == Event(TASK_RUNNING, e.t, proc=e.proc, task=e.task)
            assert 0 <= e.task < g.size()


# ---------------------------------------------------------------------- #
# SIGTERM: the flight ring and the live snapshot survive a kill
# ---------------------------------------------------------------------- #

_SIGTERM_SCRIPT = """
import sys, time
from repro.core.payload import Payload
from repro.graphs import Reduction

from repro.runtimes import LocalPoolController

def leaf(ins, tid):
    time.sleep(30.0)
    return [ins[0]]

def add(ins, tid):
    return [Payload(sum(p.data for p in ins))]

flight_dir, live_dir = sys.argv[1], sys.argv[2]
g = Reduction(4, 2)
c = LocalPoolController(
    2,
    mode="thread",
    telemetry={"flight_dir": flight_dir},
    live=live_dir,
)
c.initialize(g, None)
c.register_callback(g.LEAF, leaf)
c.register_callback(g.REDUCE, add)
c.register_callback(g.ROOT, add)
print("RUNNING", flush=True)
c.run({t: Payload(i + 1) for i, t in enumerate(g.leaf_ids())})
"""


@pytest.mark.parallel
def test_sigterm_dumps_flight_ring_and_marks_status_aborted(tmp_path):
    flight_dir = tmp_path / "flight"
    live_dir = tmp_path / "live"
    flight_dir.mkdir()
    live_dir.mkdir()
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.Popen(
        [
            sys.executable, "-c", _SIGTERM_SCRIPT,
            str(flight_dir), str(live_dir),
        ],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        assert proc.stdout.readline().strip() == "RUNNING"
        time.sleep(1.0)  # let the run enter the pool wait
        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert rc == 128 + signal.SIGTERM
    # The flight ring was dumped instead of lost...
    dumps = list(flight_dir.glob("*.jsonl"))
    assert dumps, "SIGTERM must dump the flight-recorder ring"
    # ...and the live snapshot carries the terminal state.
    doc = read_status(find_status(str(live_dir))[0])
    assert doc["state"] == "aborted"
