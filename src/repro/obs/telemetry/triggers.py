"""Declarative triggers: "when condition, act" over a live event stream.

DIVA-style reactive predicates decide *which* runs deserve attention:
the flight recorder (:mod:`repro.obs.telemetry.flight`) dumps its ring
buffer when one fires.  Three shapes:

* :class:`FaultTrigger` — any fault-layer event
  (:data:`~repro.obs.events.FAULT_VOCABULARY`) fired during the run.
* :func:`when` — a one-line metric predicate, e.g.
  ``when("task_seconds_p99 > 0.05")`` or ``when("makespan >= 2.0")``,
  evaluated against streaming per-run statistics.
* :class:`SloBreachTrigger` — a full declarative bound spec (the same
  ``max_<metric>`` / ``min_<metric>`` JSON shape ``obs slo`` asserts),
  restricted to streaming-computable metrics.

All three consume events incrementally through a shared
:class:`RunStreamStats` accumulator — quantiles come from
:class:`~repro.obs.telemetry.sketch.QuantileSketch`, so trigger
evaluation holds O(buckets) memory regardless of run size.
"""

from __future__ import annotations

from repro.obs.events import (
    FAULT_INJECTED,
    FAULT_VOCABULARY,
    MESSAGE_DELIVERED,
    MESSAGE_SENT,
    RANK_DEAD,
    RUN_STARTED,
    TASK_ENQUEUED,
    TASK_FINISHED,
    TASK_RETRY,
    TASK_STARTED,
    Event,
)
from repro.obs.telemetry.sketch import DEFAULT_REL_ERR, QuantileSketch

__all__ = [
    "RunStreamStats",
    "Trigger",
    "FaultTrigger",
    "MetricTrigger",
    "SloBreachTrigger",
    "TriggerSet",
    "when",
]

#: Quantiles every latency sketch reports, as (suffix, q) pairs.
_QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))

#: The three latency families the stream accumulator sketches.
_SKETCHED = ("task_seconds", "message_seconds", "queue_wait_seconds")


class RunStreamStats:
    """Single-pass, bounded-memory statistics of one run's event stream.

    Feed events in emission order with :meth:`observe`; read scalar
    metrics back with :meth:`metrics` (or one with :meth:`metric`).
    Memory is O(sketch buckets + in-flight tasks) — never O(events).
    """

    __slots__ = (
        "makespan", "n_events", "tasks_finished", "messages_delivered",
        "messages_sent", "bytes_sent", "faults_injected", "task_retries",
        "rank_deaths", "messages_dropped", "task_seconds",
        "message_seconds", "queue_wait_seconds", "_enqueued_at",
    )

    def __init__(self, rel_err: float = DEFAULT_REL_ERR) -> None:
        self.makespan = 0.0
        self.n_events = 0
        self.tasks_finished = 0
        self.messages_delivered = 0
        self.messages_sent = 0
        self.bytes_sent = 0
        self.faults_injected = 0
        self.task_retries = 0
        self.rank_deaths = 0
        self.messages_dropped = 0
        self.task_seconds = QuantileSketch(rel_err)
        self.message_seconds = QuantileSketch(rel_err)
        self.queue_wait_seconds = QuantileSketch(rel_err)
        # task id -> last enqueue timestamp (popped by task_started);
        # bounded by tasks in flight, not by stream length.
        self._enqueued_at: dict[int, float] = {}

    def observe(self, ev: Event) -> None:
        self.n_events += 1
        if ev.t > self.makespan:
            self.makespan = ev.t
        typ = ev.type
        if typ == TASK_FINISHED:
            self.tasks_finished += 1
            self.task_seconds.observe(ev.dur)
        elif typ == TASK_ENQUEUED:
            self._enqueued_at[ev.task] = ev.t
        elif typ == TASK_STARTED:
            t0 = self._enqueued_at.pop(ev.task, None)
            if t0 is not None:
                self.queue_wait_seconds.observe(max(0.0, ev.t - t0))
        elif typ == MESSAGE_DELIVERED:
            self.messages_delivered += 1
            self.message_seconds.observe(ev.dur)
        elif typ == MESSAGE_SENT:
            self.messages_sent += 1
            self.bytes_sent += ev.nbytes
        elif typ == FAULT_INJECTED:
            self.faults_injected += 1
            if ev.category == "link":
                self.messages_dropped += 1
        elif typ == TASK_RETRY:
            self.task_retries += 1
        elif typ == RANK_DEAD:
            self.rank_deaths += 1

    @classmethod
    def metric_names(cls) -> frozenset[str]:
        """Every metric :meth:`metrics` reports (trigger/spec validation)."""
        names = {
            "makespan", "n_events", "tasks_finished", "messages_delivered",
            "messages_sent", "bytes_sent", "faults_injected",
            "task_retries", "rank_deaths", "messages_dropped",
        }
        for family in _SKETCHED:
            names.add(f"{family}_mean")
            names.add(f"{family}_max")
            for suffix, _ in _QUANTILES:
                names.add(f"{family}_{suffix}")
        return frozenset(names)

    def metrics(self) -> dict[str, float]:
        """Scalar metric snapshot (percentiles read from the sketches)."""
        out = {
            "makespan": self.makespan,
            "n_events": float(self.n_events),
            "tasks_finished": float(self.tasks_finished),
            "messages_delivered": float(self.messages_delivered),
            "messages_sent": float(self.messages_sent),
            "bytes_sent": float(self.bytes_sent),
            "faults_injected": float(self.faults_injected),
            "task_retries": float(self.task_retries),
            "rank_deaths": float(self.rank_deaths),
            "messages_dropped": float(self.messages_dropped),
        }
        for family in _SKETCHED:
            sk: QuantileSketch = getattr(self, family)
            out[f"{family}_mean"] = sk.mean
            out[f"{family}_max"] = sk.max if sk.count else 0.0
            for suffix, q in _QUANTILES:
                out[f"{family}_{suffix}"] = sk.quantile(q)
        return out

    def metric(self, name: str) -> float:
        """One metric by name (cheaper than :meth:`metrics` for scalars)."""
        for family in _SKETCHED:
            if name.startswith(family):
                return self.metrics()[name]
        value = getattr(self, name, None)
        if value is None:
            raise KeyError(name)
        return float(value)


class Trigger:
    """One keep/dump predicate over a run.

    Event-driven triggers override :meth:`observe` and latch
    :attr:`fired` themselves; metric-driven triggers override
    :meth:`evaluate` and are checked (and latched) by the owning
    :class:`TriggerSet` when a decision is needed.
    """

    fired: bool = False

    def reset(self) -> None:
        self.fired = False

    def observe(self, ev: Event) -> None:
        """Inspect one event (event-driven triggers only)."""

    def evaluate(self, stats: RunStreamStats) -> bool:
        """Check the predicate against streaming stats (metric triggers)."""
        return self.fired

    def reason(self) -> str:
        return type(self).__name__


class FaultTrigger(Trigger):
    """Fires on any fault-layer event (injected fault, retry, rank death,
    link drop) — the "always keep anomalous traces" default."""

    def __init__(self) -> None:
        self.fired = False
        self._first: Event | None = None

    def reset(self) -> None:
        self.fired = False
        self._first = None

    def observe(self, ev: Event) -> None:
        if not self.fired and ev.type in FAULT_VOCABULARY:
            self.fired = True
            self._first = ev

    def reason(self) -> str:
        if self._first is None:
            return "fault"
        return (
            f"fault: {self._first.type} ({self._first.category or 'task'}) "
            f"at t={self._first.t:.6g}"
        )


_OPS = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
}


class MetricTrigger(Trigger):
    """``metric <op> threshold`` over the streaming run statistics."""

    def __init__(self, name: str, op: str, threshold: float) -> None:
        if op not in _OPS:
            raise ValueError(
                f"unknown operator {op!r} (one of {sorted(_OPS)})"
            )
        known = RunStreamStats.metric_names()
        if name not in known:
            raise ValueError(
                f"unknown trigger metric {name!r} "
                f"(have: {', '.join(sorted(known))})"
            )
        self.name = name
        self.op = op
        self.threshold = float(threshold)
        self.fired = False
        self._value = 0.0

    def evaluate(self, stats: RunStreamStats) -> bool:
        value = stats.metric(self.name)
        if _OPS[self.op](value, self.threshold):
            self.fired = True
            self._value = value
        return self.fired

    def reason(self) -> str:
        return (
            f"when({self.name} {self.op} {self.threshold:g}): "
            f"observed {self._value:g}"
        )


def when(condition: str) -> MetricTrigger:
    """Parse a one-line DIVA-style predicate into a trigger.

    ``when("task_seconds_p99 > 0.05")`` keeps / dumps any run whose
    streaming task-latency p99 exceeds 50ms.  The grammar is exactly
    ``<metric> <op> <number>`` with ``op`` one of ``> >= < <=``; metric
    names are :meth:`RunStreamStats.metric_names`.
    """
    parts = condition.split()
    if len(parts) != 3:
        raise ValueError(
            f"trigger condition must be '<metric> <op> <number>', "
            f"got {condition!r}"
        )
    name, op, raw = parts
    try:
        threshold = float(raw)
    except ValueError as exc:
        raise ValueError(
            f"trigger threshold {raw!r} is not a number"
        ) from exc
    return MetricTrigger(name, op, threshold)


class SloBreachTrigger(Trigger):
    """Fires when a run breaches a declarative SLO spec.

    The spec is the same JSON shape ``python -m repro.obs slo`` asserts
    (``{"max_task_seconds_p99": 0.05, "min_tasks_finished": 100}``),
    restricted to the streaming metrics of :class:`RunStreamStats`.
    """

    def __init__(self, spec: dict) -> None:
        known = RunStreamStats.metric_names()
        self.bounds: list[tuple[str, str, bool, float]] = []
        for key, bound in spec.items():
            if key.startswith("max_"):
                name, is_max = key[4:], True
            elif key.startswith("min_"):
                name, is_max = key[4:], False
            else:
                raise ValueError(
                    f"SLO key {key!r} must start with 'max_' or 'min_'"
                )
            if name not in known:
                raise ValueError(
                    f"SLO metric {name!r} is not streaming-computable "
                    f"(have: {', '.join(sorted(known))})"
                )
            self.bounds.append((key, name, is_max, float(bound)))
        self.fired = False
        self._violations: list[str] = []

    def reset(self) -> None:
        self.fired = False
        self._violations = []

    def evaluate(self, stats: RunStreamStats) -> bool:
        violations = []
        for key, name, is_max, bound in self.bounds:
            value = stats.metric(name)
            if (is_max and value > bound) or (not is_max and value < bound):
                op = ">" if is_max else "<"
                violations.append(f"{key}: {name} = {value:g} {op} {bound:g}")
        if violations:
            self.fired = True
            self._violations = violations
        return self.fired

    def reason(self) -> str:
        return "slo breach: " + "; ".join(self._violations)


class TriggerSet:
    """A group of triggers sharing one streaming accumulator.

    Strings are sugar for :func:`when`; dicts for
    :class:`SloBreachTrigger`.  Feed every event through
    :meth:`observe`; call :meth:`check` where a keep/dump decision is
    due (run end, abort).  Metric triggers latch once fired — a
    condition that held mid-run keeps the run even if the final metrics
    recovered.
    """

    def __init__(
        self,
        triggers: "tuple | list" = (),
        rel_err: float = DEFAULT_REL_ERR,
    ) -> None:
        self.triggers: list[Trigger] = []
        for t in triggers:
            if isinstance(t, str):
                t = when(t)
            elif isinstance(t, dict):
                t = SloBreachTrigger(t)
            elif not isinstance(t, Trigger):
                raise TypeError(
                    f"trigger must be a Trigger, condition string, or "
                    f"SLO spec dict, got {type(t).__name__}"
                )
            self.triggers.append(t)
        self.rel_err = rel_err
        self.stats = RunStreamStats(rel_err)

    def __len__(self) -> int:
        return len(self.triggers)

    def start_run(self) -> None:
        """Reset for the next run (the accumulator starts fresh)."""
        self.stats = RunStreamStats(self.rel_err)
        for t in self.triggers:
            t.reset()

    def observe(self, ev: Event) -> None:
        if ev.type == RUN_STARTED:
            self.start_run()
        self.stats.observe(ev)
        for t in self.triggers:
            t.observe(ev)

    def check(self) -> bool:
        """Evaluate metric triggers against the current stats; latch."""
        fired = False
        for t in self.triggers:
            fired = t.evaluate(self.stats) or fired
        return fired

    @property
    def fired(self) -> bool:
        return any(t.fired for t in self.triggers)

    def reasons(self) -> list[str]:
        return [t.reason() for t in self.triggers if t.fired]
