"""REPRO_TRACE wiring: the benchmark harness attaches one process-wide
exporter to every observed controller."""

import benchmarks.harness as harness
from repro.core.payload import Payload
from repro.graphs import DataParallel
from repro.obs import ChromeTraceExporter, JsonlExporter, load_events
from repro.obs.telemetry import FlightRecorder
from repro.runtimes import MPIController


def run_flat(c):
    g = DataParallel(8)
    c.initialize(g)
    c.register_callback(g.WORK, lambda ins, tid: [ins[0]])
    return c.run({t: Payload(1) for t in range(8)})


def fresh(monkeypatch, path, flight_dir=None):
    monkeypatch.setattr(harness, "_trace_exporter", None)
    if path is None:
        monkeypatch.delenv("REPRO_TRACE", raising=False)
    else:
        monkeypatch.setenv("REPRO_TRACE", str(path))
    if flight_dir is None:
        monkeypatch.delenv("REPRO_FLIGHT_DIR", raising=False)
    else:
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(flight_dir))


def test_no_env_means_no_exporter(monkeypatch):
    fresh(monkeypatch, None)
    assert harness.trace_exporter() is None
    c = MPIController(2)
    assert harness.observe(c) is c
    assert c._sinks == []


def test_env_selects_chrome_by_default(monkeypatch, tmp_path):
    fresh(monkeypatch, tmp_path / "t.json")
    exp = harness.trace_exporter()
    assert isinstance(exp, ChromeTraceExporter)
    assert harness.trace_exporter() is exp  # singleton


def test_jsonl_suffix_selects_jsonl(monkeypatch, tmp_path):
    fresh(monkeypatch, tmp_path / "t.jsonl")
    assert isinstance(harness.trace_exporter(), JsonlExporter)


def test_observed_runs_land_in_the_file(monkeypatch, tmp_path):
    path = tmp_path / "t.jsonl"
    fresh(monkeypatch, path)
    run_flat(harness.observe(MPIController(2)))
    run_flat(harness.observe(MPIController(2)))
    harness.trace_exporter().close()
    events = load_events(str(path))
    assert sum(1 for e in events if e.type == "run_started") == 2
    assert sum(1 for e in events if e.type == "task_finished") == 16


def test_no_env_means_no_flight_telemetry(monkeypatch):
    fresh(monkeypatch, None)
    c = harness.observe(MPIController(2))
    assert c.telemetry is False
    assert c._sinks == []


def test_flight_env_arms_the_recorder(monkeypatch, tmp_path):
    flight = tmp_path / "flight"
    fresh(monkeypatch, None, flight_dir=flight)
    c = harness.observe(MPIController(2))
    [recorder] = c._sinks
    assert isinstance(recorder, FlightRecorder)
    assert recorder.out_dir == str(flight)
    # A clean observed run still leaves the dump directory untouched.
    run_flat(c)
    assert not flight.exists()


def test_flight_env_respects_explicit_telemetry(monkeypatch, tmp_path):
    # An explicitly attached recorder is the only one the run gets.
    fresh(monkeypatch, None, flight_dir=tmp_path / "flight")
    mine = FlightRecorder(str(tmp_path / "mine"))
    c = harness.observe(MPIController(2, sinks=[mine], telemetry=True))
    assert c._sinks == [mine]
    assert c.telemetry is True
