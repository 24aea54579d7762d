"""Causal task spans: the trace as a DAG instead of a flat stream.

Exporters request *span context* (``EventSink.wants_context``), which
makes every ``task_started`` event carry the ``parents`` tuple — the
producer task id behind each payload the attempt consumed.  Together
with the ``task``/``dst_task`` pair on every message event, an exported
trace is therefore a causal DAG (task -> message -> task), and this
module is its query layer:

* :class:`CausalDag` — one :class:`TaskSpan` per task plus the parent /
  child edge maps, built by :func:`causal_dag` from a single run's
  events.  Traces without explicit ``parents`` (older files, plain
  sinks) fall back to edges derived from ``message_delivered`` events.
* :func:`causal_dag(...).lineage(t)` — every ancestor a task causally
  depends on; ``wait_for(t)`` explains *that task's* latency with the
  critical-path buckets (compute / overhead / network / wait).
* :func:`recovery_accounting` — the fault-tolerance overhead of a run
  (wasted attempt seconds, replayed compute, recovery tail, fault
  counters), derived purely from the ``FAULT_VOCABULARY`` events.
* :func:`run_stats` / :func:`run_label` — the one fold of a finished
  run into :class:`~repro.sim.trace.Stats` (makespan, per-category
  seconds, counts), read by ``summarize`` and :mod:`repro.obs.diff`.

Everything here is offline analysis over an already-captured stream —
nothing touches the simulator hot path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.critical_path import CriticalPath, critical_path
from repro.obs.events import (
    FAULT_INJECTED,
    MESSAGE_DELIVERED,
    MESSAGE_SENT,
    OVERHEAD,
    RANK_DEAD,
    RUN_FINISHED,
    RUN_STARTED,
    TASK_FINISHED,
    TASK_MIGRATED,
    TASK_RETRY,
    TASK_STARTED,
    Event,
)
from repro.sim.trace import Stats

__all__ = [
    "TaskSpan",
    "CausalDag",
    "causal_dag",
    "recovery_accounting",
    "run_label",
    "run_stats",
]

#: The events whose time can end a run: the makespan is the last of them.
_RUN_END = (TASK_FINISHED, MESSAGE_DELIVERED, RUN_FINISHED)


@dataclass(frozen=True)
class TaskSpan:
    """The final (successful) execution of one task, plus its history.

    Attributes:
        task: task id.
        proc: proc the final attempt ran on.
        start: compute start of the final attempt (virtual seconds).
        end: compute end of the final attempt.
        compute: compute time of the final attempt.
        parents: causal producers of the final attempt, in arrival
            order (one entry per input slot).
        attempts: executions observed in the stream (1 on a clean run;
            failed attempts and lineage replays add to it).
        wasted: seconds burned by this task's failed/timed-out attempts.
        retries: ``task.retry`` events for this task.
    """

    task: int
    proc: int
    start: float
    end: float
    compute: float
    parents: tuple[int, ...] = ()
    attempts: int = 1
    wasted: float = 0.0
    retries: int = 0

    @property
    def span(self) -> float:
        return self.end - self.start


@dataclass
class CausalDag:
    """Per-task spans plus parent/child edges of one run's trace.

    ``explicit`` records whether the edges came from span context
    (``task_started.parents``) or were derived from message events —
    both yield the task graph's real producer edges, but only explicit
    context survives for runs whose messages were not exported.
    """

    spans: dict[int, TaskSpan] = field(default_factory=dict)
    children: dict[int, tuple[int, ...]] = field(default_factory=dict)
    explicit: bool = False
    #: the single-run event stream the DAG was built from
    events: list[Event] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.spans)

    def __contains__(self, task: int) -> bool:
        return task in self.spans

    def parents_of(self, task: int) -> tuple[int, ...]:
        """Causal producers of ``task`` (deduplicated, arrival order)."""
        span = self.spans.get(task)
        if span is None:
            return ()
        return tuple(dict.fromkeys(span.parents))

    def sources(self) -> list[int]:
        """Tasks with no causal parents (externally fed)."""
        return sorted(t for t, s in self.spans.items() if not s.parents)

    def sinks(self) -> list[int]:
        """Tasks nothing consumed from (the run's outputs)."""
        return sorted(t for t in self.spans if not self.children.get(t))

    def lineage(self, task: int) -> list[int]:
        """Every ancestor ``task`` causally depends on (BFS, task first).

        The returned list starts at ``task`` and ends at the sources —
        the set of executions that had to happen for this output to
        exist.
        """
        if task not in self.spans:
            raise KeyError(f"task {task} is not in this trace")
        order: dict[int, None] = {task: None}
        queue = [task]
        while queue:
            cur = queue.pop(0)
            for p in self.parents_of(cur):
                if p not in order and p in self.spans:
                    order[p] = None
                    queue.append(p)
        return list(order)

    def wait_for(self, task: int) -> CriticalPath:
        """Critical-path attribution of ``task``'s finish time.

        Walks the binding dependency chain backward from ``task`` (not
        from the run's last finisher), answering "what was this output
        waiting for?" in the four makespan buckets.
        """
        return critical_path(self.events, sink=task)

    def recovery_overhead(self, task: int) -> dict[str, float]:
        """Fault/recovery seconds attributable to ``task``'s lineage.

        Sums the wasted attempt time and retry backoff of every span the
        task causally depends on (itself included) — the per-sink
        fault-overhead attribution.
        """
        wasted = 0.0
        retries = 0
        extra_attempts = 0
        for t in self.lineage(task):
            s = self.spans[t]
            wasted += s.wasted
            retries += s.retries
            extra_attempts += s.attempts - 1
        return {
            "wasted_seconds": wasted,
            "retries": float(retries),
            "extra_attempts": float(extra_attempts),
        }


def causal_dag(events: list[Event]) -> CausalDag:
    """Build the causal DAG of one run's event stream.

    Prefers explicit span context (``task_started.parents``); falls back
    to deriving edges from ``message_delivered`` events when the stream
    carries none (plain sinks, pre-context traces).
    """
    starts: dict[int, Event] = {}
    finishes: dict[int, list[Event]] = {}
    retries: dict[int, int] = {}
    faults: dict[int, int] = {}
    delivered: dict[int, list[int]] = {}
    explicit = False
    for ev in events:
        if ev.type == TASK_STARTED:
            starts[ev.task] = ev  # last attempt wins
            if ev.parents:
                explicit = True
        elif ev.type == TASK_FINISHED:
            finishes.setdefault(ev.task, []).append(ev)
        elif ev.type == TASK_RETRY:
            retries[ev.task] = retries.get(ev.task, 0) + 1
        elif ev.type == FAULT_INJECTED and ev.category in ("task", "timeout"):
            faults[ev.task] = faults.get(ev.task, 0) + 1
        elif ev.type == MESSAGE_DELIVERED and ev.dst_task >= 0 and ev.task >= 0:
            delivered.setdefault(ev.dst_task, []).append(ev.task)

    dag = CausalDag(explicit=explicit, events=events)
    children: dict[int, dict[int, None]] = {}
    for task, fins in finishes.items():
        # The first `faults[task]` finishes are failed/timed-out attempts
        # (transient faults consume their attempt before the successful
        # executions, including lineage replays); the last one is the
        # span that produced the outputs downstream consumed.
        n_failed = min(faults.get(task, 0), len(fins) - 1) \
            if len(fins) > 1 else 0
        final = fins[-1]
        start_ev = starts.get(task)
        if explicit and start_ev is not None:
            parents = start_ev.parents
        else:
            parents = tuple(delivered.get(task, ()))
        start_t = start_ev.t if start_ev is not None else final.t - final.dur
        dag.spans[task] = TaskSpan(
            task=task,
            proc=final.proc,
            start=start_t,
            end=final.t,
            compute=final.dur,
            parents=parents,
            attempts=len(fins),
            wasted=sum(f.dur for f in fins[:n_failed]),
            retries=retries.get(task, 0),
        )
        for p in parents:
            children.setdefault(p, {}).setdefault(task, None)
    dag.children = {p: tuple(c) for p, c in children.items()}
    return dag


def recovery_accounting(events: list[Event]) -> dict[str, float]:
    """PR 3's fault/recovery overhead, derived from one run's events.

    Returns zeroed counters for a clean run, so callers can gate their
    reporting on ``faults_injected > 0``.  ``wasted_seconds`` is the
    compute burned by failed/timed-out attempts; ``replayed_seconds`` is
    compute re-executed by lineage replay after a rank death;
    ``recovery_tail_seconds`` is the makespan past the first fault — the
    end-to-end cost of running under faults.
    """
    acc = {
        "faults_injected": 0.0,
        "task_retries": 0.0,
        "rank_deaths": 0.0,
        "tasks_migrated": 0.0,
        "messages_dropped": 0.0,
        "wasted_seconds": 0.0,
        "replayed_seconds": 0.0,
        "retry_backoff_seconds": 0.0,
        "recovery_tail_seconds": 0.0,
        "first_fault_time": 0.0,
    }
    first_fault: float | None = None
    makespan = 0.0
    for ev in events:
        if ev.type == FAULT_INJECTED:
            acc["faults_injected"] += 1
            if ev.category == "link":
                acc["messages_dropped"] += 1
            if first_fault is None or ev.t < first_fault:
                first_fault = ev.t
        elif ev.type == TASK_RETRY:
            acc["task_retries"] += 1
            acc["retry_backoff_seconds"] += ev.dur
        elif ev.type == RANK_DEAD:
            acc["rank_deaths"] += 1
            if first_fault is None or ev.t < first_fault:
                first_fault = ev.t
        elif ev.type == TASK_MIGRATED:
            acc["tasks_migrated"] += 1
        elif ev.type in _RUN_END:
            makespan = max(makespan, ev.t)
    if acc["faults_injected"] or acc["rank_deaths"]:
        dag = causal_dag(events)
        for span in dag.spans.values():
            acc["wasted_seconds"] += span.wasted
            # Successful executions beyond the first that were not
            # failed attempts are lineage replays of this task.
            replays = max(0, span.attempts - 1 - span.retries)
            acc["replayed_seconds"] += replays * span.compute
    if first_fault is not None:
        acc["first_fault_time"] = first_fault
        acc["recovery_tail_seconds"] = max(0.0, makespan - first_fault)
    return acc


def run_stats(events: list[Event]) -> Stats:
    """Fold one finished run's events into :class:`~repro.sim.trace.Stats`.

    The makespan is the last ``task_finished``, ``message_delivered`` or
    ``run_finished`` time (the rule :class:`~repro.obs.timeline.RunTimelines`
    uses).  ``network`` (send-to-delivery time, which occupies no core
    and so is absent from a live run's ``Stats``) is its own category,
    and an overhead without a category counts as ``overhead``.
    """
    stats = Stats()
    makespan, tasks, messages, nbytes = 0.0, 0, 0, 0
    for ev in events:
        if ev.type == TASK_FINISHED:
            tasks += 1
            stats.add("compute", ev.dur)
        elif ev.type == OVERHEAD:
            stats.add(ev.category or "overhead", ev.dur)
        elif ev.type == MESSAGE_SENT:
            messages += 1
            nbytes += ev.nbytes
        elif ev.type == MESSAGE_DELIVERED and ev.dur > 0.0:
            stats.add("network", ev.dur)
        if ev.type in _RUN_END:
            makespan = max(makespan, ev.t)
    return stats.frozen(makespan, tasks, messages, nbytes)


def run_label(events: list[Event], default: str) -> str:
    """The label of the run's ``run_started`` event, else ``default``."""
    for ev in events:
        if ev.type == RUN_STARTED:
            return ev.label or default
    return default
