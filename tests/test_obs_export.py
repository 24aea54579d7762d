"""Trace exporters: Chrome trace-event JSON and JSONL must be valid,
timestamp-consistent, and round-trip the exact event stream."""

import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.payload import Payload
from repro.graphs import Reduction
from repro.obs import (
    ChromeTraceExporter,
    Event,
    JsonlExporter,
    ListSink,
    events_from_jsonl,
    load_events,
    split_runs,
)
from repro.obs.cli import main
from repro.obs.export import _jsonl_line, iter_events, iter_runs
from repro.runtimes import MPIController


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


def canon(events):
    return sorted(json.dumps(e.to_dict(), sort_keys=True) for e in events)


@pytest.fixture
def traced_run(tmp_path):
    """One MPI run captured by every sink at once."""
    cpath = tmp_path / "trace.json"
    jpath = tmp_path / "trace.jsonl"
    chrome = ChromeTraceExporter(str(cpath))
    jsonl = JsonlExporter(str(jpath))
    sink = ListSink()
    c = MPIController(4)
    for s in (chrome, jsonl, sink):
        c.add_sink(s)
    _, result = run_reduction(c)
    chrome.close()
    jsonl.close()
    return cpath, jpath, sink, result


class TestChromeTrace:
    def test_valid_json_document(self, traced_run):
        cpath, _, _, _ = traced_run
        doc = json.loads(cpath.read_text())
        assert isinstance(doc["traceEvents"], list)
        assert doc["displayTimeUnit"] == "ms"
        assert doc["traceEvents"]

    def test_timestamps_monotonically_consistent(self, traced_run):
        """ts/dur are non-negative microseconds, slices stay inside the
        run, and the record list is ts-sorted."""
        cpath, _, _, result = traced_run
        doc = json.loads(cpath.read_text())
        records = [r for r in doc["traceEvents"] if r["ph"] != "M"]
        span_us = result.makespan * 1e6
        last_ts = -1.0
        for r in records:
            assert r["ts"] >= 0
            assert r["ts"] >= last_ts
            last_ts = r["ts"]
            if r["ph"] == "X":
                assert r["dur"] >= 0
                assert r["ts"] + r["dur"] <= span_us * (1 + 1e-9) + 1e-3
            else:
                assert r["ts"] <= span_us * (1 + 1e-9) + 1e-3

    def test_process_metadata_names_runs(self, traced_run):
        cpath, _, _, _ = traced_run
        doc = json.loads(cpath.read_text())
        meta = [r for r in doc["traceEvents"] if r["ph"] == "M"]
        names = {r["args"]["name"] for r in meta}
        assert any("MPIController" in n for n in names)
        assert any(" net" in n for n in names)

    def test_round_trips_exact_event_stream(self, traced_run):
        cpath, _, sink, _ = traced_run
        assert canon(load_events(str(cpath))) == canon(sink.events)

    def test_multi_run_files_split_per_run(self, tmp_path):
        cpath = tmp_path / "two.json"
        chrome = ChromeTraceExporter(str(cpath))
        c = MPIController(4)
        c.add_sink(chrome)
        run_reduction(c)
        run_reduction(c)
        chrome.close()
        runs = split_runs(load_events(str(cpath)))
        assert len(runs) == 2
        assert len(runs[0]) == len(runs[1])
        for run in runs:
            assert run[0].type == "run_started"
        # Two runs means two compute pids in the file.
        doc = json.loads(cpath.read_text())
        pids = {r["pid"] for r in doc["traceEvents"]}
        assert {0, 1} <= pids

    def test_close_is_idempotent(self, tmp_path):
        path = tmp_path / "once.json"
        exp = ChromeTraceExporter(str(path))
        exp.emit(Event("run_started", 0.0, label="X"))
        exp.close()
        path.write_text(path.read_text() + " ")  # marker
        exp.close()  # second close must not rewrite the file
        assert path.read_text().endswith(" ")


class TestJsonl:
    def test_streams_one_event_per_line(self, traced_run):
        _, jpath, sink, _ = traced_run
        lines = jpath.read_text().splitlines()
        assert len(lines) == len(sink.events)
        parsed = events_from_jsonl(lines)
        assert parsed == sink.events  # order-preserving, lossless

    def test_load_events_sniffs_jsonl(self, traced_run):
        _, jpath, sink, _ = traced_run
        assert load_events(str(jpath)) == sink.events

    def test_emit_after_close_raises(self, tmp_path):
        exp = JsonlExporter(str(tmp_path / "x.jsonl"))
        exp.close()
        exp.close()  # idempotent
        with pytest.raises(ValueError):
            exp.emit(Event("overhead", 0.0))

    def test_finished_run_is_on_disk_before_close(self, tmp_path):
        """What a process that dies after its run leaves behind: the
        exporter flushes at ``run_finished``, so the log is whole even
        though nobody called ``close()``."""
        path = tmp_path / "unclosed.jsonl"
        exp, sink = JsonlExporter(str(path)), ListSink()
        c = MPIController(4)
        c.add_sink(exp)
        c.add_sink(sink)
        run_reduction(c)
        try:
            assert path.read_text().endswith("}\n")
            assert load_events(str(path)) == sink.events
        finally:
            exp.close()


def _or_default(default, values):
    return st.one_of(st.just(default), values)


_times = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-9, -1.5, 1e22, 1e16]),
)
_events = st.builds(
    Event,
    type=st.text(),
    t=_times,
    proc=_or_default(-1, st.integers()),
    task=_or_default(-1, st.integers()),
    dst_proc=_or_default(-1, st.integers()),
    dst_task=_or_default(-1, st.integers()),
    dur=_or_default(0.0, _times),
    category=_or_default("", st.text()),
    nbytes=_or_default(0, st.integers()),
    label=_or_default("", st.text()),
    parents=_or_default((), st.lists(st.integers()).map(tuple)),
)


class TestJsonlLineWriter:
    """The exporter formats each line itself; ``json.dumps`` of the
    public dict form is the reference it must equal byte for byte."""

    @given(_events)
    @example(Event("", 0.0))  # every default dropped
    @example(Event("task_started", 7, proc=0, task=0, parents=(3, 3, 3)))
    @example(Event("overhead", float("nan"), dur=float("-inf")))
    @example(
        Event(
            "caf\u00e9 \u2603 \U0001f600", -2.5, dur=5e-324,
            category='q"uote\\back', label="ctl\x00\x1f\n\t\x7f",
        )
    )
    def test_line_equals_json_dumps_of_to_dict(self, ev):
        line = _jsonl_line(ev)
        assert line == json.dumps(ev.to_dict()) + "\n"
        if ev.t == ev.t and ev.dur == ev.dur:  # nan != nan
            assert Event.from_dict(json.loads(line)) == ev


class TestFaultVocabularyRoundTrip:
    """Chaos-run traces: the fault vocabulary and span context must
    survive both exporters losslessly."""

    @pytest.fixture(scope="class")
    def chaos_traced(self, tmp_path_factory):
        from tests.golden_workloads import CONTROLLERS, run_workload

        d = tmp_path_factory.mktemp("chaos")
        cpath = d / "chaos.json"
        jpath = d / "chaos.jsonl"
        chrome = ChromeTraceExporter(str(cpath))
        jsonl = JsonlExporter(str(jpath))
        sink = ListSink(wants_context=True)
        c = CONTROLLERS["mpi_chaos"]()
        for s in (chrome, jsonl, sink):
            c.add_sink(s)
        run_workload(c)
        chrome.close()
        jsonl.close()
        return cpath, jpath, sink

    def test_stream_exercises_full_fault_vocabulary(self, chaos_traced):
        from repro.obs.events import FAULT_VOCABULARY

        _, _, sink = chaos_traced
        assert FAULT_VOCABULARY <= {e.type for e in sink.events}

    def test_chrome_round_trips_fault_events(self, chaos_traced):
        cpath, _, sink = chaos_traced
        assert canon(load_events(str(cpath))) == canon(sink.events)

    def test_jsonl_round_trips_fault_events(self, chaos_traced):
        _, jpath, sink = chaos_traced
        assert load_events(str(jpath)) == sink.events

    def test_fault_fields_survive_per_type(self, chaos_traced):
        from repro.obs.events import (
            FAULT_INJECTED,
            RANK_DEAD,
            TASK_MIGRATED,
            TASK_RETRY,
        )

        _, jpath, sink = chaos_traced
        loaded = load_events(str(jpath))
        by_type = {}
        for ev in loaded:
            by_type.setdefault(ev.type, []).append(ev)
        assert any(e.category for e in by_type[FAULT_INJECTED])
        assert all(e.dur >= 0 for e in by_type[TASK_RETRY])  # backoff
        assert all(e.proc >= 0 for e in by_type[RANK_DEAD])
        assert all(
            e.proc >= 0 and e.task >= 0 for e in by_type[TASK_MIGRATED]
        )

    def test_parents_round_trip_as_tuples(self, chaos_traced):
        _, jpath, sink = chaos_traced
        loaded = load_events(str(jpath))
        with_parents = [e for e in loaded if e.parents]
        assert with_parents  # context sink was attached
        for got, want in zip(loaded, sink.events):
            assert isinstance(got.parents, tuple)
            assert got.parents == want.parents


class TestParentsField:
    def test_default_parents_omitted_from_dict(self):
        ev = Event("task_started", 1.0, proc=0, task=3)
        assert "parents" not in ev.to_dict()

    def test_parents_serialize_and_coerce_back_to_tuple(self):
        ev = Event("task_started", 1.0, proc=0, task=6, parents=(1, 4, 4))
        d = ev.to_dict()
        assert d["parents"] == [1, 4, 4]  # JSON-friendly list
        back = Event.from_dict(json.loads(json.dumps(d)))
        assert back == ev
        assert back.parents == (1, 4, 4)


class TestLoadEvents:
    def test_rejects_garbage(self, tmp_path):
        p = tmp_path / "garbage.txt"
        p.write_text("not a trace\n")
        with pytest.raises(ValueError):
            load_events(str(p))

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_events(str(tmp_path / "nope.json"))

    def test_bare_trace_events_array(self, tmp_path):
        ev = Event("task_finished", 1.0, proc=0, task=1, dur=1.0)
        p = tmp_path / "bare.json"
        p.write_text(json.dumps([{"ph": "X", "pid": 0, "tid": 0,
                                  "ts": 0, "dur": 1, "name": "t1",
                                  "args": {"ev": ev.to_dict()}}]))
        assert load_events(str(p)) == [ev]

    def test_split_runs_without_markers_is_one_run(self):
        evs = [Event("task_finished", 1.0, task=0, dur=1.0)]
        assert split_runs(evs) == [evs]


class TestStreamingReaders:
    """iter_events / iter_runs must agree exactly with the materializing
    load_events / split_runs on every on-disk format."""

    def test_iter_events_matches_load_events_jsonl(self, traced_run):
        _, jpath, sink, _ = traced_run
        assert list(iter_events(str(jpath))) == load_events(str(jpath))
        assert list(iter_events(str(jpath))) == sink.events

    def test_iter_events_matches_load_events_chrome(self, traced_run):
        cpath, _, _, _ = traced_run
        assert list(iter_events(str(cpath))) == load_events(str(cpath))

    def test_iter_events_is_lazy_on_jsonl(self, traced_run):
        _, jpath, sink, _ = traced_run
        it = iter_events(str(jpath))
        assert next(it) == sink.events[0]  # first event without full read

    def test_iter_events_rejects_garbage(self, tmp_path):
        p = tmp_path / "garbage.txt"
        p.write_text("not a trace\n")
        with pytest.raises(ValueError):
            list(iter_events(str(p)))

    def test_iter_events_empty_file(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        assert list(iter_events(str(p))) == []

    def test_iter_runs_matches_split_runs(self, tmp_path):
        jpath = tmp_path / "two.jsonl"
        jsonl = JsonlExporter(str(jpath))
        c = MPIController(4)
        c.add_sink(jsonl)
        run_reduction(c)
        run_reduction(c)
        jsonl.close()
        streamed = list(iter_runs(iter_events(str(jpath))))
        assert streamed == split_runs(load_events(str(jpath)))
        assert len(streamed) == 2

    def test_one_event_jsonl_is_read_by_every_verb(self, tmp_path):
        # A one-line log is also one JSON document: it must still read
        # as JSONL everywhere, not as an empty Chrome trace.
        ev = Event("task_finished", 1.0, proc=0, task=0, dur=1.0)
        p = tmp_path / "one.jsonl"
        p.write_text(json.dumps(ev.to_dict()) + "\n")
        assert load_events(str(p)) == [ev]
        assert main(["timeline", str(p)]) == 0
        assert main(["diff", str(p), str(p)]) == 0

    def test_iter_runs_without_markers_is_one_run(self):
        evs = [Event("task_finished", 1.0, task=0, dur=1.0)]
        assert list(iter_runs(iter(evs))) == [evs]

    def test_iter_runs_yields_incrementally(self):
        def gen():
            yield Event("run_started", 0.0)
            yield Event("run_finished", 1.0)
            yield Event("run_started", 0.0)
            raise AssertionError("second run must not be consumed yet")

        it = iter_runs(gen())
        first = next(it)
        assert [e.type for e in first] == ["run_started", "run_finished"]
