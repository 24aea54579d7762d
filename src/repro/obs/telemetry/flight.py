"""Flight recorder: a bounded ring of recent events, dumped on anomaly.

A :class:`FlightRecorder` is an :class:`~repro.obs.events.EventSink`
holding only the last ``capacity`` events in a ring buffer — constant
memory however long the run.  When the run saw a fault-layer event
(:data:`~repro.obs.events.FAULT_VOCABULARY`) or aborts with an
exception, the ring is dumped to disk: a ``flight-NNNN.jsonl`` event
file readable by every ``python -m repro.obs`` subcommand, plus a
``flight-NNNN.manifest.json`` sidecar recording why, when, and what was
captured.  ``NNNN`` is the first number no dump in the directory has
taken yet, so recorders may share a directory.  Clean runs write
nothing.

This is the post-mortem story for *unobserved* production runs: attach
a recorder (``sinks=[FlightRecorder(dir)]``; cheaply — no full trace is
retained) and the moments before any anomaly are on disk without having
planned for it.

"Aborts with an exception" includes being killed: the ``local`` backend
converts SIGTERM (and Ctrl-C's KeyboardInterrupt) on a run with a sink
that hears aborts into its normal exception path, so
:meth:`FlightRecorder.abort` still runs and the ring survives the kill
instead of dying with the process (see
``repro.runtimes.local._terminate_to_exception``).
"""

from __future__ import annotations

import json
import os
from collections import deque

from repro.obs.events import (
    FAULT_VOCABULARY,
    RUN_FINISHED,
    RUN_STARTED,
    Event,
    EventSink,
)

__all__ = ["FlightRecorder", "DEFAULT_CAPACITY"]

#: Default ring size: enough tail to reconstruct the failure
#: neighbourhood, small enough to be always-on.
DEFAULT_CAPACITY = 4096


class FlightRecorder(EventSink):
    """Keep the last ``capacity`` events; dump them when the run faults.

    Args:
        out_dir: directory for dumps (created on first dump, so a clean
            run leaves no trace on disk).
        capacity: ring size in events.
    """

    def __init__(self, out_dir: str, *, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.out_dir = out_dir
        self.capacity = capacity
        self.ring: deque[Event] = deque(maxlen=capacity)
        #: Paths of every dump written, in order.
        self.dumps: list[str] = []
        self._run_idx = 0
        self._next = 0  # the number the next dump tries first
        self._seen = 0  # events observed this run (ring may be smaller)
        self._fault: Event | None = None  # first fault event of this run

    def emit(self, event: Event) -> None:
        typ = event.type
        if typ == RUN_STARTED:
            self._fault = None
        self.ring.append(event)
        self._seen += 1
        if self._fault is None and typ in FAULT_VOCABULARY:
            self._fault = event
        if typ == RUN_FINISHED:
            if self._fault is not None:
                self._dump(self._reasons())
            self._end_run()

    def abort(self, exc: BaseException | None = None) -> str | None:
        """Dump unconditionally — the run died mid-stream.

        Controllers call this from their exception path; the dump
        captures the events leading up to the crash.  Returns the dump
        path (None if the ring is empty).
        """
        if not self._seen:
            return None
        reasons = [f"abort: {type(exc).__name__}: {exc}" if exc else "abort"]
        path = self._dump(reasons + self._reasons())
        self._end_run()
        return path

    def close(self) -> None:
        # A truncated stream that saw a fault still gets its dump
        # (e.g. the process is exiting through sink teardown).
        if self._seen:
            if self._fault is not None:
                self._dump(self._reasons())
            self._end_run()

    # ------------------------------------------------------------------ #

    def _reasons(self) -> list[str]:
        ev = self._fault
        if ev is None:
            return []
        return [f"fault: {ev.type} ({ev.category or 'task'}) at t={ev.t:.6g}"]

    def _end_run(self) -> None:
        self.ring.clear()
        self._seen = 0
        self._run_idx += 1
        self._fault = None

    def _dump(self, reasons: list[str]) -> str:
        os.makedirs(self.out_dir, exist_ok=True)
        while True:
            # The first number free in out_dir, claimed by an exclusive
            # create: recorders sharing a directory never overwrite.
            stem = f"flight-{self._next:04d}"
            self._next += 1
            path = os.path.join(self.out_dir, stem + ".jsonl")
            try:
                fh = open(path, "x", encoding="utf-8")
            except FileExistsError:
                continue
            break
        with fh:
            for e in self.ring:
                fh.write(json.dumps(e.to_dict(), separators=(",", ":")))
                fh.write("\n")
        manifest = {
            "run": self._run_idx,
            "reasons": reasons,
            "events_captured": len(self.ring),
            "events_seen": self._seen,
            "capacity": self.capacity,
            "truncated": self._seen > len(self.ring),
        }
        with open(
            os.path.join(self.out_dir, stem + ".manifest.json"),
            "w",
            encoding="utf-8",
        ) as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        self.dumps.append(path)
        return path
