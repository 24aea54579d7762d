"""The live plane: one sink, one fold, one status writer.

``repro.run(..., live="<dir>")`` (or the ``REPRO_LIVE_DIR`` environment
variable) arms a run for in-flight observation.  The run's scaffold
attaches a :class:`LiveStatus` to its hub like any other sink.  The
sink folds the run's events into progress counters as they are
emitted; its :class:`StatusWriter` thread turns that fold into ETA and
straggler alerts and atomically rewrites ``live-<pid>.json`` every
``interval`` seconds.  ``python -m repro.obs watch`` and ``serve`` read
those snapshots from another process.

The gate is :func:`attach_live`: on an unarmed run it returns ``None``
before constructing anything — no sink, no thread — which is
what lets ``tests/test_obs_overhead.py`` poison every constructor in
this module and still run the whole suite's unobserved paths.

All timestamps are *run-relative seconds* on whatever clock the run
uses: wall seconds since run start for the ``local`` backend, virtual
seconds for the simulated ones.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass

from repro.obs.events import (
    FAULT_INJECTED,
    MESSAGE_DELIVERED,
    MESSAGE_SENT,
    OVERHEAD,
    RUN_FINISHED,
    RUN_STARTED,
    TASK_ENQUEUED,
    TASK_FINISHED,
    TASK_RETRY,
    TASK_RUNNING,
    TASK_STARTED,
    EventSink,
)

__all__ = [
    "ENV_LIVE_DIR",
    "MIN_STRAGGLER_SECONDS",
    "STRAGGLER_FACTOR",
    "LiveConfig",
    "LiveStatus",
    "StatusWriter",
    "attach_live",
    "find_status",
    "read_status",
]

#: Arm live monitoring from the environment: any run in the process
#: writes status snapshots into this directory, no code change needed.
ENV_LIVE_DIR = "REPRO_LIVE_DIR"

#: Status filename for this process's current run.
_STATUS_TEMPLATE = "live-{pid}.json"

#: A task is a straggler once it has run longer than this many times
#: its expected duration...
STRAGGLER_FACTOR = 4.0
#: ...but nothing faster than this (seconds) is ever flagged: tiny
#: tasks jitter by multiples of themselves on a busy host.
MIN_STRAGGLER_SECONDS = 0.05

#: Failed attempts carry this label suffix in both the local and the
#: simulated backends; their ``task_finished`` events are wasted work,
#: not progress.
_FAILED_SUFFIX = "(failed attempt)"

#: Cap on the completed-duration sample backing the online median.
_MEDIAN_SAMPLE = 1024


@dataclass(frozen=True)
class LiveConfig:
    """What a controller's live plane should do (``live=`` argument).

    Attributes:
        dir: status-snapshot directory (``None`` falls back to
            ``$REPRO_LIVE_DIR``; with neither, arming is an error).
        interval: seconds between status snapshots and straggler checks.
        estimate: a :class:`repro.sched.estimate.CostEstimate` giving
            per-task expected seconds (e.g. a ``ProfiledEstimate`` from
            a previous run); None falls back to the online median.
    """

    dir: str | None = None
    interval: float = 0.25
    estimate: object = None

    @classmethod
    def coerce(cls, value) -> "LiveConfig | None":
        """Normalize a controller's ``live=`` argument.

        ``None``/``False`` -> None (off), ``True`` -> defaults, a path
        string -> that status directory, a dict -> kwargs, a
        :class:`LiveConfig` passes through.
        """
        if value is None or value is False:
            return None
        if value is True:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(dir=value)
        if isinstance(value, dict):
            return cls(**value)
        raise TypeError(
            f"live must be None, bool, str, dict, or LiveConfig, "
            f"got {type(value).__name__}"
        )

    def resolved_dir(self) -> str | None:
        return self.dir or os.environ.get(ENV_LIVE_DIR) or None


class StatusWriter:
    """Background thread: ``snapshot_fn() -> dict`` to an atomic JSON file.

    Writes once at start, every ``interval`` seconds, and once more at
    :meth:`close`, each time replacing ``path`` through a temporary file
    and ``os.replace`` so readers never see a torn document.  Each
    document is stamped with the writer's ``state`` and ``updated_ts``.
    A ``snapshot_fn`` that raises (a half-updated registry) skips the
    tick, and a full disk leaves the last snapshot stale: neither takes
    the observed run or service down.
    """

    def __init__(self, path: str, snapshot_fn, interval: float) -> None:
        self.path = path
        self.snapshot_fn = snapshot_fn
        self.interval = interval
        self._state = "running"
        self._stop = threading.Event()
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        self._thread = threading.Thread(
            target=self._loop, name="repro-status", daemon=True
        )
        self._thread.start()

    def _write(self) -> None:
        try:
            doc = dict(self.snapshot_fn())
        except Exception:
            return  # the next tick retries
        doc["state"] = self._state
        doc["updated_ts"] = time.time()
        tmp = f"{self.path}.tmp"
        try:
            with open(tmp, "w") as fp:
                json.dump(doc, fp)
            os.replace(tmp, self.path)
        except OSError:
            pass

    def _loop(self) -> None:
        self._write()
        while not self._stop.wait(self.interval):
            self._write()
        self._write()

    def close(self, state: str) -> None:
        """Stop the thread and stamp ``state`` into the last snapshot."""
        self._state = state
        self._stop.set()
        self._thread.join(timeout=max(2.0, self.interval * 8))
        if self._thread.is_alive():  # wedged writer: last-resort snapshot
            self._write()


class LiveStatus(EventSink):
    """One run's in-flight status: a sink that folds as the run emits.

    ``emit`` folds each event into progress counters on the run's own
    thread, and every tick the writer thread's :meth:`snapshot` flags
    stragglers and returns the status document.  No event outlives its
    ``emit``: a queue for the writer to fold would keep every event of
    a tick alive, and the garbage collector, which never untracks a
    ``NamedTuple``, would walk them all.  No lock is needed: the run's
    thread is the only one that writes the fold's state, and the
    writer thread reads it through single C-level copies (``len``,
    ``list(d.items())``, ``sorted(list)``), which the interpreter lock
    keeps whole.

    A task's expected duration is its planned estimate, else the online
    median of completed durations, else unknown (no alert).  Straggler
    alerts are sticky for the rest of the run.
    """

    def __init__(
        self,
        total: int,
        n_ranks: int = 0,
        estimates: "dict[int, float] | None" = None,
        *,
        runtime: str = "",
        metrics=None,
    ) -> None:
        self.total = total
        self.n_ranks = n_ranks
        self.estimates = estimates or {}
        self.runtime = runtime
        self.metrics = metrics
        #: the run's clock (run-relative seconds); ``None`` reads the
        #: freshest event's timestamp, the only clock a simulation has.
        self.clock = None
        self.writer: StatusWriter | None = None
        self.run_label = ""
        self.finished = False
        self.makespan: float | None = None
        self.queued = self.messages = self.bytes_sent = 0
        self.faults = self.retries = 0
        self.last_event_t = 0.0
        #: task id -> (rank, start t) of attempts on a core right now.
        self.running: dict[int, tuple[int, float]] = {}
        self.rank_done: dict[int, int] = {}
        self.done: set[int] = set()
        #: expected-seconds already completed (drives the weighted ETA).
        self._done_expected = 0.0
        self._sample: list[float] = []
        #: task id -> straggler alert, in the order they fired.
        self.alerts: dict[int, dict] = {}
        self._started_ts = time.time()

    def close(self, state: str = "finished") -> None:
        """Stop the writer, stamping the run's terminal state."""
        self.writer.close(state)

    def abort(self, exc: BaseException | None = None) -> None:
        self.close("aborted")

    def emit(self, ev) -> None:
        # Ordered by frequency; overhead and message_delivered events
        # move only the clock.
        kind, t = ev.type, ev.t
        if t > self.last_event_t:
            self.last_event_t = t
        if kind == OVERHEAD or kind == MESSAGE_DELIVERED:
            return
        if kind == MESSAGE_SENT:
            self.messages += 1
            self.bytes_sent += ev.nbytes
        elif kind == TASK_ENQUEUED:
            self.queued += 1
        elif kind == TASK_STARTED or kind == TASK_RUNNING:
            task = ev.task
            if task not in self.done:
                # ``local`` reports an attempt twice (at submit, then
                # retroactively): it left the queue only once.
                if self.queued and task not in self.running:
                    self.queued -= 1
                self.running[task] = (ev.proc, t)
        elif kind == TASK_FINISHED:
            task = ev.task
            self.running.pop(task, None)
            if task not in self.done and not ev.label.endswith(_FAILED_SUFFIX):
                self.done.add(task)
                self.rank_done[ev.proc] = self.rank_done.get(ev.proc, 0) + 1
                if len(self._sample) < _MEDIAN_SAMPLE:
                    self._sample.append(ev.dur)
                self._done_expected += self.estimates.get(task, 0.0)
        elif kind == RUN_STARTED:
            self.run_label = ev.label
        elif kind == RUN_FINISHED:
            self.finished = True
            self.makespan = ev.dur
            self.running.clear()
        elif kind == FAULT_INJECTED:
            self.faults += 1
        elif kind == TASK_RETRY:
            self.retries += 1

    def eta(self, now: float) -> float | None:
        """Estimated seconds to completion (None = no basis yet).

        With per-task estimates, remaining *expected work* over the
        observed completion rate of expected work — so finishing the
        cheap half fast does not produce a rosy ETA for the expensive
        half.  Without estimates, plain remaining-count over rate.
        """
        if self.finished:
            return 0.0
        done = len(self.done)
        if done == 0 or now <= 0:
            return None
        if self._done_expected > 0:
            remaining = sum(
                s for t, s in self.estimates.items() if t not in self.done
            )
            return remaining * now / self._done_expected
        return max(0, self.total - done) * now / done

    def snapshot(self, now: float | None = None) -> dict:
        """Flag stragglers and return the status document.

        ``now`` defaults to the run's clock (the writer's ticks).
        """
        if now is None:
            now = self.clock() if self.clock is not None else self.last_event_t
        sample = sorted(self._sample)
        median = sample[len(sample) // 2] if sample else None
        rank_done = dict(self.rank_done)
        running, running_of = [], {}
        for task, (rank, since) in list(self.running.items()):
            expected = self.estimates.get(task, median)
            elapsed = now - since
            running.append(
                {
                    "task": task,
                    "rank": rank,
                    "since": since,
                    "elapsed": max(0.0, elapsed),
                    "expected": expected,
                }
            )
            running_of[rank] = running_of.get(rank, 0) + 1
            if expected is None or task in self.alerts:
                continue
            threshold = max(STRAGGLER_FACTOR * expected, MIN_STRAGGLER_SECONDS)
            if elapsed > threshold:
                self.alerts[task] = {
                    "kind": "straggler",
                    "t": now,
                    "task": task,
                    "rank": rank,
                    "seconds": elapsed,
                    "threshold": threshold,
                    "message": (
                        f"task {task} running {elapsed:.3g}s on rank {rank} "
                        f"> {threshold:.3g}s ({STRAGGLER_FACTOR:g}x "
                        f"expected {expected:.3g}s)"
                    ),
                }
        running.sort(key=lambda r: -r["elapsed"])
        ranks = sorted(
            set(rank_done) | set(running_of) | set(range(self.n_ranks))
        )
        done = len(self.done)
        doc = {
            "pid": os.getpid(),
            "runtime": self.runtime,
            "started_ts": self._started_ts,
            "t": now,
            "run": self.run_label,
            "total": self.total,
            "done": done,
            "queued": self.queued,
            "progress": done / self.total if self.total else 1.0,
            "eta": self.eta(now),
            "finished": self.finished,
            "makespan": self.makespan,
            "messages": self.messages,
            "bytes_sent": self.bytes_sent,
            "faults": self.faults,
            "retries": self.retries,
            "running": running[:64],
            "ranks": [
                {
                    "rank": r,
                    "done": rank_done.get(r, 0),
                    "running": running_of.get(r, 0),
                }
                for r in ranks
            ],
            "alerts": list(self.alerts.values()),
        }
        if self.metrics is not None:
            doc["metrics"] = self.metrics.snapshot().to_dict()
        return doc


def attach_live(
    value,
    *,
    total: int,
    runtime: str,
    n_ranks: int = 0,
    graph=None,
    metrics=None,
) -> LiveStatus | None:
    """Arm the live plane for one run, or return ``None`` untouched.

    This is the zero-cost gate: with ``live`` unset and no
    ``$REPRO_LIVE_DIR``, nothing in :mod:`repro.obs.live` is ever
    constructed.  Otherwise returns the run's :class:`LiveStatus` with
    its writer started; the caller attaches it as a sink.

    Raises:
        ValueError: ``live`` is armed but names no status directory and
            ``$REPRO_LIVE_DIR`` is unset.
    """
    cfg = LiveConfig.coerce(value)
    if cfg is None:
        env = os.environ.get(ENV_LIVE_DIR)
        if not env:
            return None
        cfg = LiveConfig(dir=env)
    status_dir = cfg.resolved_dir()
    if not status_dir:
        raise ValueError(
            'live= is armed without a status directory: pass live="<dir>" '
            f"(or LiveConfig(dir=...)), or set ${ENV_LIVE_DIR}"
        )
    estimates = None
    if cfg.estimate is not None and graph is not None:
        estimates = {
            tid: max(0.0, cfg.estimate.compute_seconds(graph.task(tid)))
            for tid in graph.task_ids()
        }
    live = LiveStatus(
        total, n_ranks, estimates, runtime=runtime, metrics=metrics
    )
    live.writer = StatusWriter(
        os.path.join(status_dir, _STATUS_TEMPLATE.format(pid=os.getpid())),
        live.snapshot,
        cfg.interval,
    )
    return live


# ---------------------------------------------------------------------- #
# Reading status files (the watch/serve side)
# ---------------------------------------------------------------------- #


def read_status(path: str) -> dict:
    """Load one status snapshot; ValueError on a corrupt file."""
    try:
        with open(path) as fp:
            return json.load(fp)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: corrupt status file ({exc})") from exc


def find_status(path: str) -> list[str]:
    """Status files behind a path: the file itself, or ``dir/live-*.json``.

    Raises ValueError when the path holds no snapshots (the CLI's
    missing-input exit-2 contract).
    """
    if os.path.isfile(path):
        return [path]
    if os.path.isdir(path):
        found = sorted(
            os.path.join(path, name)
            for name in os.listdir(path)
            if name.startswith("live-") and name.endswith(".json")
        )
        if found:
            return found
        raise ValueError(f"{path}: no live status snapshots (live-*.json)")
    raise ValueError(f"{path}: no such file or directory")
