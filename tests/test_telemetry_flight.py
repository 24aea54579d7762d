"""Flight recorder: clean runs leave no trace on disk; faults and aborts
dump a bounded ring of recent events plus a
manifest, and the dump is loadable by the standard obs toolchain."""

import json

import pytest

from repro.core.payload import Payload
from repro.faults import FaultPlan
from repro.graphs import Reduction
from repro.obs import load_events
from repro.obs.events import (
    FAULT_INJECTED,
    RUN_FINISHED,
    RUN_STARTED,
    TASK_FINISHED,
    Event,
)
from repro.obs.telemetry import FlightRecorder
from repro.runtimes import (
    LegionSPMDController,
    LocalPoolController,
    MPIController,
    SerialController,
)


def feed_run(rec, n_tasks=5, makespan=1.0, fault=False, finish=True):
    rec.emit(Event(RUN_STARTED, 0.0, label="run"))
    for i in range(n_tasks):
        rec.emit(Event(TASK_FINISHED, 0.1 * (i + 1), proc=0, task=i, dur=0.05))
    if fault:
        rec.emit(Event(FAULT_INJECTED, 0.5, proc=0, task=1, category="task"))
    if finish:
        rec.emit(Event(RUN_FINISHED, makespan, dur=makespan))


class TestUnit:
    def test_clean_run_writes_nothing(self, tmp_path):
        out = tmp_path / "flight"
        rec = FlightRecorder(str(out))
        feed_run(rec)
        rec.close()
        assert not out.exists()  # not even the directory
        assert rec.dumps == []

    def test_fault_dumps_ring_and_manifest(self, tmp_path):
        out = tmp_path / "flight"
        rec = FlightRecorder(str(out))
        feed_run(rec, fault=True)
        (path,) = rec.dumps
        events = load_events(path)
        assert [e.type for e in events[:1]] == [RUN_STARTED]
        assert any(e.type == FAULT_INJECTED for e in events)
        manifest = json.loads(
            (out / "flight-0000.manifest.json").read_text()
        )
        assert manifest["run"] == 0
        assert manifest["reasons"] == ["fault: fault.injected (task) at t=0.5"]
        assert manifest["events_captured"] == len(events)
        assert manifest["truncated"] is False

    def test_ring_keeps_only_the_last_capacity_events(self, tmp_path):
        out = tmp_path / "flight"
        rec = FlightRecorder(str(out), capacity=4)
        feed_run(rec, n_tasks=20, fault=True)
        (path,) = rec.dumps
        events = load_events(path)
        assert len(events) == 4
        assert events[-1].type == RUN_FINISHED  # the most recent survive
        manifest = json.loads((out / "flight-0000.manifest.json").read_text())
        assert manifest["truncated"] is True
        assert manifest["events_seen"] == 23  # start + 20 + fault + finish

    def test_abort_dumps_unconditionally(self, tmp_path):
        out = tmp_path / "flight"
        rec = FlightRecorder(str(out))
        feed_run(rec, finish=False)  # run dies mid-stream
        path = rec.abort(RuntimeError("kaboom"))
        assert path is not None and load_events(path)
        manifest = json.loads((out / "flight-0000.manifest.json").read_text())
        assert manifest["reasons"][0] == "abort: RuntimeError: kaboom"

    def test_abort_on_empty_ring_is_noop(self, tmp_path):
        rec = FlightRecorder(str(tmp_path / "flight"))
        assert rec.abort(RuntimeError("x")) is None

    def test_close_dumps_fired_truncated_stream(self, tmp_path):
        out = tmp_path / "flight"
        rec = FlightRecorder(str(out))
        feed_run(rec, fault=True, finish=False)
        rec.close()
        assert len(rec.dumps) == 1

    def test_dumps_are_numbered_per_anomaly(self, tmp_path):
        out = tmp_path / "flight"
        rec = FlightRecorder(str(out))
        feed_run(rec, fault=True)
        feed_run(rec)  # clean: no dump
        feed_run(rec, fault=True)
        assert [p.rsplit("/", 1)[-1] for p in rec.dumps] == [
            "flight-0000.jsonl",
            "flight-0001.jsonl",
        ]

    def test_capacity_validated(self, tmp_path):
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(str(tmp_path), capacity=0)


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


class TestControllerWiring:
    def test_clean_simulated_run_leaves_no_dir(self, tmp_path):
        out = tmp_path / "flight"
        c = MPIController(4, sinks=[FlightRecorder(str(out))])
        g, result = run_reduction(c)
        assert result.stats.tasks_executed == g.size()
        assert not out.exists()

    def test_injected_fault_dumps_from_controller(self, tmp_path):
        out = tmp_path / "flight"
        leaf = sorted(Reduction(16, 4).leaf_ids())[0]
        c = MPIController(
            4,
            fault_plan=FaultPlan(task_faults={leaf: 1}),
            sinks=[FlightRecorder(str(out))],
        )
        g, result = run_reduction(c)
        assert result.stats.tasks_executed == g.size()
        dumps = sorted(out.glob("flight-*.jsonl"))
        assert len(dumps) == 1
        events = load_events(str(dumps[0]))
        assert any(e.type == FAULT_INJECTED for e in events)

    def test_crashing_callback_dumps_abort(self, tmp_path):
        out = tmp_path / "flight"
        c = MPIController(4, sinks=[FlightRecorder(str(out))])
        g = Reduction(16, 4)
        c.initialize(g, None)

        def boom(ins, tid):
            raise RuntimeError("callback exploded")

        c.register_callback(g.LEAF, boom)
        c.register_callback(g.REDUCE, boom)
        c.register_callback(g.ROOT, boom)
        with pytest.raises(RuntimeError, match="callback exploded"):
            c.run({t: Payload(1) for t in g.leaf_ids()})
        manifests = sorted(out.glob("*.manifest.json"))
        assert manifests, "abort must leave a post-mortem dump"
        reasons = json.loads(manifests[0].read_text())["reasons"]
        assert reasons[0].startswith("abort: ")

    def test_serial_crash_dumps_abort(self, tmp_path):
        out = tmp_path / "flight"
        c = SerialController(sinks=[FlightRecorder(str(out))])
        g = Reduction(16, 4)
        c.initialize(g, None)

        def boom(ins, tid):
            raise RuntimeError("serial exploded")

        c.register_callback(g.LEAF, boom)
        c.register_callback(g.REDUCE, boom)
        c.register_callback(g.ROOT, boom)
        with pytest.raises(RuntimeError, match="serial exploded"):
            c.run({t: Payload(1) for t in g.leaf_ids()})
        assert sorted(out.glob("flight-*.jsonl"))

    def test_telemetry_sketches_on_result(self, tmp_path):
        c = MPIController(4, telemetry=True)
        _, result = run_reduction(c)
        assert set(result.metrics.sketches) == {
            "message_seconds",
            "queue_wait_seconds",
            "task_seconds",
        }
        task = result.metrics.sketches["task_seconds"]
        assert task["count"] == 21
        assert result.metrics.quantile("task_seconds", 0.99) >= 0.0

    def test_telemetry_off_means_no_sketches(self):
        c = MPIController(4)
        _, result = run_reduction(c)
        assert result.metrics.sketches == {}

    def test_telemetry_coerce_rejects_garbage(self):
        with pytest.raises(TypeError, match="telemetry"):
            MPIController(4, telemetry="yes")
        with pytest.raises(TypeError, match="telemetry"):
            SerialController(telemetry={"rel_err": 0.05})


ABORTING = {
    "serial": lambda sinks: SerialController(sinks=sinks),
    "mpi": lambda sinks: MPIController(4, sinks=sinks),
    "legion-spmd": lambda sinks: LegionSPMDController(4, sinks=sinks),
    "local-inline": lambda sinks: LocalPoolController(
        2, mode="inline", sinks=sinks
    ),
    "local-thread": lambda sinks: LocalPoolController(
        2, mode="thread", sinks=sinks
    ),
}


@pytest.mark.parametrize("backend", sorted(ABORTING))
def test_a_recorder_passed_as_a_sink_dumps_on_abort(backend, tmp_path):
    """A flight recorder attached through ``sinks=`` hears the abort of
    a run whose callback raises, on every backend."""
    out = tmp_path / "flight"
    recorder = FlightRecorder(str(out))
    c = ABORTING[backend]([recorder])
    g = Reduction(8, 2)
    c.initialize(g, None)

    def boom(ins, tid):
        raise RuntimeError("reduce exploded")

    c.register_callback(g.LEAF, lambda ins, tid: [ins[0]])
    c.register_callback(g.REDUCE, boom)
    c.register_callback(g.ROOT, boom)
    with pytest.raises(RuntimeError, match="reduce exploded"):
        c.run({t: Payload(i + 1) for i, t in enumerate(g.leaf_ids())})
    assert recorder.dumps == [str(out / "flight-0000.jsonl")]
    assert (out / "flight-0000.manifest.json").exists()
    manifest = json.loads((out / "flight-0000.manifest.json").read_text())
    assert manifest["reasons"][0] == "abort: RuntimeError: reduce exploded"
    events = load_events(recorder.dumps[0])
    assert events[0].type == RUN_STARTED


def test_two_recorders_on_one_directory_keep_both_crashes(tmp_path):
    """Dump names are claimed in the directory, not counted per
    recorder: a second crashing run beside the first adds a dump."""
    out = tmp_path / "flight"
    recorders = [FlightRecorder(str(out)), FlightRecorder(str(out))]
    for k, recorder in enumerate(recorders):
        c = MPIController(4, sinks=[recorder])
        g = Reduction(8, 2)
        c.initialize(g, None)

        def boom(ins, tid, k=k):
            raise RuntimeError(f"run {k} exploded")

        c.register_callback(g.LEAF, lambda ins, tid: [ins[0]])
        c.register_callback(g.REDUCE, boom)
        c.register_callback(g.ROOT, boom)
        with pytest.raises(RuntimeError, match=f"run {k} exploded"):
            c.run({t: Payload(i + 1) for i, t in enumerate(g.leaf_ids())})
    assert [r.dumps for r in recorders] == [
        [str(out / "flight-0000.jsonl")],
        [str(out / "flight-0001.jsonl")],
    ]
    reasons = [
        json.loads((out / f"flight-000{k}.manifest.json").read_text())["reasons"][0]
        for k in range(2)
    ]
    assert reasons == [
        "abort: RuntimeError: run 0 exploded",
        "abort: RuntimeError: run 1 exploded",
    ]
    assert len(load_events(str(out / "flight-0001.jsonl"))) > 0
