"""The live observability plane: the sink, its fold, the writer, end-to-end.

``tests/test_obs_overhead.py`` proves the *absence* of this machinery
on unarmed runs; this file proves its presence does what it claims —
progress/ETA folding, straggler detection, atomic status snapshots an
out-of-process watcher can read mid-run, and (critically) that arming
it changes nothing about the recorded event stream.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core.payload import Payload
from repro.graphs import Reduction
from repro.obs import ListSink
from repro.obs.events import (
    LIVE_VOCABULARY,
    RUN_FINISHED,
    RUN_STARTED,
    TASK_ENQUEUED,
    TASK_FINISHED,
    TASK_RUNNING,
    TASK_STARTED,
    VOCABULARY,
    Event,
)
from repro.obs.live import (
    MIN_STRAGGLER_SECONDS,
    LiveConfig,
    LiveStatus,
    StatusWriter,
    attach_live,
    find_status,
    read_status,
    render_status,
)
from repro.runtimes import LocalPoolController, MPIController
from repro.sched import UniformEstimate


class TestHubBusTap:
    def test_live_vocabulary_stays_out_of_the_sink_vocabulary(self):
        # task.running is handed to the live sink alone; the recorded
        # stream (and every golden built from it) never sees it.
        assert LIVE_VOCABULARY == {TASK_RUNNING}
        assert not (LIVE_VOCABULARY & VOCABULARY)


# ---------------------------------------------------------------------- #
# The fold: progress, ETA, stragglers
# ---------------------------------------------------------------------- #


def _fed(live: LiveStatus, events) -> LiveStatus:
    for ev in events:
        live.emit(ev)
    return live


def _alerts(live: LiveStatus, now: float) -> list[dict]:
    return live.snapshot(now)["alerts"]


class TestStragglerDetector:
    def test_planned_estimate_wins_over_median(self):
        live = _fed(
            LiveStatus(3, estimates={7: 2.0}),
            [
                Event(TASK_FINISHED, t=0.1, proc=0, task=0, dur=0.1),
                Event(TASK_STARTED, t=0.0, proc=0, task=7),
            ],
        )
        assert live.snapshot(1.0)["running"][0]["expected"] == 2.0
        assert _alerts(live, 8.0) == []  # 4 x 2.0 s, not exceeded yet
        assert _alerts(live, 8.1)[0]["threshold"] == 8.0

    def test_median_fallback_for_unestimated_tasks(self):
        live = _fed(
            LiveStatus(4),
            [
                Event(TASK_FINISHED, t=1.0, proc=0, task=i, dur=dur)
                for i, dur in enumerate((1.0, 5.0, 3.0))
            ]
            + [Event(TASK_STARTED, t=1.0, proc=0, task=99)],
        )
        assert live.snapshot(2.0)["running"][0]["expected"] == 3.0
        assert _alerts(live, 13.1)[0]["threshold"] == 12.0

    def test_abstains_with_no_information(self):
        live = _fed(LiveStatus(2), [Event(TASK_STARTED, t=0.0, task=1)])
        doc = live.snapshot(1e6)
        assert doc["running"][0]["expected"] is None
        assert doc["alerts"] == []

    def test_min_seconds_floors_tiny_thresholds(self):
        live = _fed(
            LiveStatus(2, estimates={1: 1e-6}),
            [Event(TASK_STARTED, t=0.0, task=1)],
        )
        assert _alerts(live, 0.04) == []
        assert _alerts(live, 0.06)[0]["threshold"] == MIN_STRAGGLER_SECONDS


class TestProgressTracker:
    def test_counts_and_progress(self):
        live = _fed(
            LiveStatus(4, 2),
            [
                Event(RUN_STARTED, t=0.0, label="demo"),
                Event(TASK_ENQUEUED, t=0.0, task=0),
                Event(TASK_ENQUEUED, t=0.0, task=1),
                Event(TASK_ENQUEUED, t=0.0, task=2),
                Event(TASK_STARTED, t=0.1, proc=0, task=0),
                Event(TASK_FINISHED, t=0.3, proc=0, task=0, dur=0.2),
                # local reports an attempt at submit and again when it
                # resolves: it left the queue once.
                Event(TASK_RUNNING, t=0.3, proc=1, task=1),
                Event(TASK_STARTED, t=0.3, proc=1, task=1),
            ],
        )
        doc = live.snapshot(0.4)
        assert doc["done"] == 1 and doc["queued"] == 1
        assert doc["progress"] == 0.25
        assert doc["run"] == "demo"
        assert [r["task"] for r in doc["running"]] == [1]

    def test_failed_attempts_are_not_progress(self):
        live = _fed(
            LiveStatus(2),
            [
                Event(TASK_STARTED, t=0.0, proc=0, task=0),
                Event(
                    TASK_FINISHED, t=0.1, proc=0, task=0, dur=0.1,
                    label="t0 (failed attempt)",
                ),
            ],
        )
        assert live.snapshot(0.1)["done"] == 0
        _fed(
            live,
            [
                Event(TASK_STARTED, t=0.2, proc=0, task=0),
                Event(TASK_FINISHED, t=0.3, proc=0, task=0, dur=0.1),
            ],
        )
        assert live.snapshot(0.3)["done"] == 1

    def test_run_finished_clears_running_and_sets_makespan(self):
        live = _fed(
            LiveStatus(1),
            [
                Event(TASK_STARTED, t=0.0, proc=0, task=0),
                Event(RUN_FINISHED, t=1.5, dur=1.5),
            ],
        )
        doc = live.snapshot()  # no clock: the freshest event's time
        assert doc["t"] == 1.5
        assert doc["finished"] and doc["makespan"] == 1.5
        assert not doc["running"] and doc["eta"] == 0.0

    def test_eta_from_completion_rate(self):
        live = _fed(
            LiveStatus(4),
            [
                Event(TASK_FINISHED, t=1.0, proc=0, task=0, dur=1.0),
                Event(TASK_FINISHED, t=2.0, proc=0, task=1, dur=1.0),
            ],
        )
        # 2 done in 2s -> 1 task/s -> 2 remaining ~ 2s.
        assert live.snapshot(2.0)["eta"] == pytest.approx(2.0)

    def test_eta_is_weighted_by_expected_work(self):
        live = _fed(
            LiveStatus(3, estimates={0: 1.0, 1: 1.0, 2: 8.0}),
            [
                Event(TASK_FINISHED, t=1.0, proc=0, task=0, dur=1.0),
                Event(TASK_FINISHED, t=2.0, proc=0, task=1, dur=1.0),
            ],
        )
        # 2.0 expected-seconds done in 2s; 8.0 expected remain -> ~8s,
        # not the count-based (1 remaining / 1 per s) = 1s.
        assert live.snapshot(2.0)["eta"] == pytest.approx(8.0)

    def test_eta_abstains_before_first_completion(self):
        assert LiveStatus(4).snapshot(1.0)["eta"] is None

    def test_straggler_alert_is_sticky(self):
        live = _fed(
            LiveStatus(2, estimates={5: 0.1}),
            [Event(TASK_STARTED, t=0.0, proc=1, task=5)],
        )
        assert _alerts(live, 0.3) == []
        (alert,) = _alerts(live, 0.5)
        assert alert["kind"] == "straggler"
        assert alert["task"] == 5 and alert["rank"] == 1
        assert alert["threshold"] == pytest.approx(0.4)
        assert alert["seconds"] == pytest.approx(0.5)
        # Re-checking adds nothing, and the alert stands...
        assert _alerts(live, 0.6) == [alert]
        # ...even after the task eventually finishes.
        live.emit(Event(TASK_FINISHED, t=0.7, proc=1, task=5, dur=0.7))
        assert _alerts(live, 0.8) == [alert]

    def test_snapshot_is_json_serializable(self):
        live = _fed(
            LiveStatus(3, 2, estimates={0: 1.0}),
            [
                Event(RUN_STARTED, t=0.0, label="snap"),
                Event(TASK_STARTED, t=0.1, proc=0, task=0),
                Event(TASK_FINISHED, t=0.4, proc=0, task=0, dur=0.3),
                Event(TASK_STARTED, t=0.4, proc=1, task=1),
            ],
        )
        doc = json.loads(json.dumps(live.snapshot(0.6)))
        assert doc["done"] == 1 and doc["total"] == 3
        assert doc["running"][0]["task"] == 1
        assert doc["ranks"] == [
            {"rank": 0, "done": 1, "running": 0},
            {"rank": 1, "done": 0, "running": 1},
        ]
        # render_status accepts the same dict (smoke the terminal view).
        text = render_status({"state": "running", **doc})
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

    @pytest.mark.parametrize("value", [True, {"interval": 0.1}])
    def test_arming_without_a_directory_is_an_error(self, value, monkeypatch):
        monkeypatch.delenv("REPRO_LIVE_DIR", raising=False)
        with pytest.raises(ValueError) as err:
            attach_live(value, total=1, runtime="x")
        assert 'live="<dir>"' in str(err.value)
        assert "$REPRO_LIVE_DIR" in str(err.value)
        # A run armed that way fails before it starts.
        with pytest.raises(ValueError, match="REPRO_LIVE_DIR"):
            _run_reduction(MPIController(4, live=value))


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
        live.emit(Event(TASK_STARTED, t=0.1, proc=0, task=0))
        live.emit(Event(TASK_FINISHED, t=0.5, proc=0, task=0, dur=0.4))
        live.close("finished")
        paths = find_status(str(tmp_path))
        assert len(paths) == 1
        doc = read_status(paths[0])
        assert doc["state"] == "finished"
        assert doc["runtime"] == "TestRuntime"
        assert doc["done"] == 1 and doc["total"] == 2
        assert doc["pid"] == os.getpid()

    def test_a_raising_snapshot_skips_the_tick(self, tmp_path):
        calls = []

        def snapshot():
            calls.append(None)
            if len(calls) == 1:
                raise RuntimeError("half-updated registry")
            return {"n": len(calls)}

        path = str(tmp_path / "sub" / "live-1.json")
        StatusWriter(path, snapshot, 60.0).close("closed")
        doc = read_status(path)
        assert doc["n"] == 2 and doc["state"] == "closed"
        assert not os.path.exists(path + ".tmp")

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

    def test_arming_live_leaves_the_event_stream_bit_identical(self, tmp_path):
        plain, armed = ListSink(), ListSink()
        _run_reduction(MPIController(4), sink=plain)
        _run_reduction(MPIController(4, live=str(tmp_path)), sink=armed)
        assert [e.to_dict() for e in plain.events] == [
            e.to_dict() for e in armed.events
        ]

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
    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_thread_run_flags_the_injected_straggler(self, mode, tmp_path):
        cfg = LiveConfig(
            dir=str(tmp_path),
            interval=0.05,
            estimate=UniformEstimate(seconds=0.02),
        )
        g = Reduction(8, 2)
        c = LocalPoolController(2, mode=mode, live=cfg)
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
        lambda live: MPIController(4, live=live),
        lambda live: LocalPoolController(2, mode="process", live=live),
    ],
    ids=["mpi", "local-process"],
)
def test_bus_and_sinks_are_handed_the_same_records(
    ctor, tmp_path, monkeypatch
):
    """The live sink is handed the very ``Event`` records the other
    sinks are, plus the driver's ``task.running`` reports — one per
    attempt on ``local``, none on a simulator."""
    received: list[Event] = []
    emit = LiveStatus.emit

    def recording(self, ev):
        received.append(ev)
        emit(self, ev)

    monkeypatch.setattr(LiveStatus, "emit", recording)
    sink = ListSink()
    c = ctor(str(tmp_path))
    g, _ = _run_reduction(c, sink=sink)
    assert all(type(e) is Event for e in received)
    recorded = [e for e in received if e.type not in LIVE_VOCABULARY]
    live_only = [e for e in received if e.type in LIVE_VOCABULARY]
    assert recorded == sink.events
    assert {e.type for e in sink.events}.isdisjoint(LIVE_VOCABULARY)
    local = isinstance(c, LocalPoolController)
    assert len(live_only) == (g.size() if local else 0)
    for e in live_only:
        assert e == Event(TASK_RUNNING, e.t, proc=e.proc, task=e.task)
        assert 0 <= e.task < g.size()


# ---------------------------------------------------------------------- #
# SIGTERM: the flight ring and the live snapshot survive a kill
# ---------------------------------------------------------------------- #

_SIGTERM_SCRIPT = """
import sys, time
from repro.core.payload import Payload
from repro.graphs import Reduction

from repro.obs.telemetry import FlightRecorder
from repro.runtimes import LocalPoolController

def leaf(ins, tid):
    time.sleep(30.0)
    return [ins[0]]

def add(ins, tid):
    return [Payload(sum(p.data for p in ins))]

flight_dir, live_dir, mode = sys.argv[1], sys.argv[2], sys.argv[3]
g = Reduction(4, 2)
c = LocalPoolController(
    2,
    mode=mode,
    sinks=[FlightRecorder(flight_dir)],
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
@pytest.mark.parametrize("mode", ["thread", "process"])
def test_sigterm_dumps_flight_ring_and_marks_status_aborted(mode, tmp_path):
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
            str(flight_dir), str(live_dir), mode,
        ],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        assert proc.stdout.readline().strip() == "RUNNING"
        time.sleep(1.0)  # let the run enter the pool wait
        proc.send_signal(signal.SIGTERM)
        killed = time.monotonic()
        rc = proc.wait(timeout=30)
        exited = time.monotonic() - killed
    finally:
        if proc.poll() is None:
            proc.kill()
    assert rc == 128 + signal.SIGTERM
    # A callback still sleeping in its slot does not hold the exit.
    assert exited <= 3.0, f"exit took {exited:.1f}s after SIGTERM"
    # The flight ring was dumped instead of lost...
    dumps = list(flight_dir.glob("*.jsonl"))
    assert dumps, "SIGTERM must dump the flight-recorder ring"
    # ...and the live snapshot carries the terminal state.
    doc = read_status(find_status(str(live_dir))[0])
    assert doc["state"] == "aborted"
