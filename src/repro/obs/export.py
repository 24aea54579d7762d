"""Event-stream exporters and loaders.

Two on-disk formats:

* **Chrome trace-event JSON** (:class:`ChromeTraceExporter`) — loadable
  in Perfetto / ``chrome://tracing``.  Each controller run becomes one
  process (pid); procs become threads (tid); compute and overhead
  intervals become complete (``"ph": "X"``) slices; network transfers
  land on per-proc ``net`` tracks in a sibling pid.  Every exported
  record carries the originating event in ``args.ev``, so the file
  round-trips losslessly back into :class:`~repro.obs.events.Event`
  objects via :func:`load_events`.
* **JSONL** (:class:`JsonlExporter`) — one compact JSON object per
  event, streamed as emitted and flushed at every ``run_finished``
  (a finished run survives a later crash; grep-able).

Both formats are recognised by :func:`load_events`, which the
``python -m repro.obs`` CLI and the critical-path analyzer build on.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _str
from typing import IO, Iterable, Iterator

from repro.obs.events import (
    MESSAGE_DELIVERED,
    OVERHEAD,
    RUN_FINISHED,
    RUN_STARTED,
    TASK_FINISHED,
    Event,
    EventSink,
)

#: Offset separating a run's compute pid from its network pid.
_NET_PID_OFFSET = 10_000
#: Seconds -> Chrome microseconds.
_US = 1e6
#: ``json.dumps`` with its defaults, for the values :func:`_jsonl_line`
#: does not format itself.
_encode = json.JSONEncoder().encode
_float = float.__repr__


def _jsonl_line(ev: Event) -> str:
    """``json.dumps(ev.to_dict()) + "\\n"``, byte for byte.

    Runs once per exported event, so it formats the fields itself — in
    declaration order, defaults dropped exactly as :meth:`Event.to_dict`
    drops them — instead of building the dict and setting up a generic
    encoder for it.  Only finite ``float`` times take the fast path
    (``x - x`` is ``nan`` for ``nan`` and ``±inf``, which JSON spells
    differently from ``repr``); anything else, and ``parents``, goes
    through the generic encoder.
    """
    (type_, t, proc, task, dst_proc, dst_task, dur, category, nbytes, label,
     parents) = ev  # fmt: skip
    out = '{"type": ' + _str(type_) + ', "t": ' + (
        _float(t) if type(t) is float and t - t == 0.0 else _encode(t)
    )
    if proc != -1:
        out += ', "proc": %d' % proc
    if task != -1:
        out += ', "task": %d' % task
    if dst_proc != -1:
        out += ', "dst_proc": %d' % dst_proc
    if dst_task != -1:
        out += ', "dst_task": %d' % dst_task
    if dur != 0.0:
        out += ', "dur": ' + (
            _float(dur)
            if type(dur) is float and dur - dur == 0.0
            else _encode(dur)
        )
    if category != "":
        out += ', "category": ' + _str(category)
    if nbytes != 0:
        out += ', "nbytes": %d' % nbytes
    if label != "":
        out += ', "label": ' + _str(label)
    if parents != ():
        out += ', "parents": ' + _encode(list(parents))
    return out + "}\n"


class ChromeTraceExporter(EventSink):
    """Buffers events and writes a Chrome trace-event file on close.

    Several controller runs may share one exporter (the benchmark
    harness attaches a single exporter to every run of a sweep); each
    run is rendered as its own named process.

    Exporters request span context (``wants_context``), so exported
    ``task_started`` records carry causal ``parents`` and the file can
    be analyzed as a causal DAG (:mod:`repro.obs.spans`).
    """

    wants_context = True

    def __init__(self, path: str) -> None:
        self.path = path
        self._events: list[Event] = []
        self._closed = False

    def emit(self, event: Event) -> None:
        self._events.append(event)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #

    def trace_events(self) -> list[dict]:
        """The buffered stream as Chrome trace-event records."""
        records: list[dict] = []
        run = -1
        run_label = ""
        for ev in self._events:
            if ev.type == RUN_STARTED:
                run += 1
                run_label = ev.label or f"run{run}"
                for pid, suffix in (
                    (run, ""),
                    (run + _NET_PID_OFFSET, " net"),
                ):
                    records.append(
                        {
                            "name": "process_name",
                            "ph": "M",
                            "pid": pid,
                            "tid": 0,
                            "args": {"name": f"{run_label}{suffix} (run {run})"},
                        }
                    )
            pid = max(run, 0)
            records.append(self._record(ev, pid))
        records.sort(key=lambda r: (r.get("ts", -1), r["pid"]))
        return records

    @staticmethod
    def _record(ev: Event, pid: int) -> dict:
        tid = max(ev.proc, 0)
        args = {"ev": ev.to_dict()}
        base = {"pid": pid, "tid": tid, "args": args}
        if ev.type == TASK_FINISHED:
            return {
                **base,
                "ph": "X",
                "name": ev.label or f"t{ev.task}",
                "cat": "compute",
                "ts": (ev.t - ev.dur) * _US,
                "dur": ev.dur * _US,
            }
        if ev.type == OVERHEAD:
            return {
                **base,
                "ph": "X",
                "name": ev.category or "overhead",
                "cat": ev.category or "overhead",
                "ts": (ev.t - ev.dur) * _US if ev.dur else ev.t * _US,
                "dur": ev.dur * _US,
            }
        if ev.type == MESSAGE_DELIVERED:
            return {
                **base,
                "pid": pid + _NET_PID_OFFSET,
                "ph": "X",
                "name": ev.label or f"t{ev.task}->t{ev.dst_task}",
                "cat": "message",
                "ts": (ev.t - ev.dur) * _US,
                "dur": ev.dur * _US,
            }
        # Everything else (enqueue, sent, migration, run markers) becomes
        # an instant event; the payload in args.ev preserves full fidelity.
        scope = "p" if ev.type in (RUN_STARTED, RUN_FINISHED) else "t"
        return {
            **base,
            "ph": "i",
            "s": scope,
            "name": ev.type if ev.task < 0 else f"{ev.type} t{ev.task}",
            "cat": ev.type,
            "ts": max(ev.t, 0.0) * _US,
        }

    def write(self, fp: IO[str]) -> None:
        json.dump(
            {"traceEvents": self.trace_events(), "displayTimeUnit": "ms"},
            fp,
        )

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        with open(self.path, "w") as fp:
            self.write(fp)


class JsonlExporter(EventSink):
    """Streams one JSON object per event (append-only event log)."""

    wants_context = True

    def __init__(self, path: str) -> None:
        self.path = path
        self._fp: IO[str] | None = open(path, "w")

    def emit(self, event: Event) -> None:
        fp = self._fp
        if fp is None:
            raise ValueError(f"JsonlExporter({self.path!r}) is closed")
        fp.write(_jsonl_line(event))
        if event.type == RUN_FINISHED:
            # One syscall per run: the log of a finished run is on disk
            # even if the process dies before ``close()``.
            fp.flush()

    def close(self) -> None:
        if self._fp is not None:
            self._fp.close()
            self._fp = None


# ---------------------------------------------------------------------- #
# Loading
# ---------------------------------------------------------------------- #


def events_from_chrome(doc: dict) -> list[Event]:
    """Recover the original event stream from an exported Chrome trace.

    Exported records are timestamp-sorted, which interleaves concurrent
    runs; the recovered stream is regrouped run by run (a run's compute
    and network tracks share ``pid % _NET_PID_OFFSET``) so
    :func:`split_runs` partitions it correctly.
    """
    keyed = []
    for i, rec in enumerate(doc.get("traceEvents", [])):
        ev = (rec.get("args") or {}).get("ev")
        if ev is not None:
            run = rec.get("pid", 0) % _NET_PID_OFFSET
            keyed.append((run, i, Event.from_dict(ev)))
    keyed.sort(key=lambda k: k[:2])
    return [ev for _, _, ev in keyed]


def events_from_jsonl(lines: Iterable[str]) -> list[Event]:
    """Parse a JSONL event log."""
    return [Event.from_dict(json.loads(line)) for line in lines if line.strip()]


def iter_events(path: str) -> Iterator[Event]:
    """Stream an event log from a Chrome-trace or JSONL file.

    The format is sniffed from the content, not the extension: a first
    line that parses as an event means JSONL, read line by line in O(1)
    memory (the telemetry-scale format — the CLI's ``summarize``
    consumes it one run at a time, so multi-gigabyte logs never sit in
    memory); anything else starting with ``{`` or ``[`` is a Chrome
    trace, a single JSON document parsed in full.

    Raises:
        ValueError: when the file is neither format (raised on first
            iteration — generators are lazy).
    """
    with open(path) as fp:
        first = fp.readline()
        try:
            obj = json.loads(first)
        except json.JSONDecodeError:
            obj = None  # a multi-line document, or not JSON at all
        if isinstance(obj, dict) and "type" in obj and "t" in obj:
            yield Event.from_dict(obj)
            for line in fp:
                if line.strip():
                    yield Event.from_dict(json.loads(line))
            return
        if first[:1] not in ("{", "[", ""):
            raise ValueError(f"{path}: not a Chrome trace or JSONL event log")
        if obj is None and first:
            fp.seek(0)
            obj = json.load(fp)
    if isinstance(obj, list):  # bare traceEvents array
        obj = {"traceEvents": obj}
    yield from events_from_chrome(obj or {})


def load_events(path: str) -> list[Event]:
    """:func:`iter_events`, materialized.

    Raises:
        ValueError: when the file is neither format.
    """
    return list(iter_events(path))


def iter_runs(events: Iterable[Event]) -> Iterator[list[Event]]:
    """Stream run partitions from a (possibly streaming) event source.

    A new run starts at every ``run_started``; events preceding the
    first one (legacy streams) form their own run.  Holds one run's
    events at a time, so per-run analyses over a huge multi-run log
    (paired with :func:`iter_events`) never see more than the largest
    single run.
    """
    current: list[Event] = []
    for ev in events:
        if ev.type == RUN_STARTED and current:
            yield current
            current = []
        current.append(ev)
    if current:
        yield current


def split_runs(events: Iterable[Event]) -> list[list[Event]]:
    """:func:`iter_runs`, materialized."""
    return list(iter_runs(events))


__all__ = [
    "ChromeTraceExporter",
    "JsonlExporter",
    "events_from_chrome",
    "events_from_jsonl",
    "iter_events",
    "iter_runs",
    "load_events",
    "split_runs",
]
