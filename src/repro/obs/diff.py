"""Trace diffing: explain *what moved* between two captured runs.

``python -m repro.obs diff base.jsonl current.jsonl`` (and the perf
harness's ``--check`` regression path) build on this module.  Runs are
paired positionally (run *i* of file A against run *i* of file B); each
pair yields a :class:`RunDiff` with:

* makespan delta and its **critical-path attribution** — how much of
  the change is compute vs. overhead vs. network vs. wait on the
  binding chain (the buckets of :mod:`repro.obs.critical_path`);
* per-phase (stats-category) totals summed over all ranks;
* per-task compute deltas, plus tasks that exist on only one side;
* fault/recovery overhead on both sides
  (:func:`~repro.obs.spans.recovery_accounting`).

The renderer names the most-moved task and phase explicitly, so a
regression report reads "t13 got 10x slower, the delta is compute on
the critical path" instead of "the number changed".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.critical_path import BUCKETS, critical_path
from repro.obs.events import Event
from repro.obs.export import split_runs
from repro.obs.spans import (
    causal_dag,
    recovery_accounting,
    run_label,
    run_stats,
)

__all__ = ["RunDiff", "diff_runs", "diff_traces", "render_diff"]

#: Deltas below this are virtual-clock float residue, not a change.
_EPS = 1e-12

#: Fault-accounting keys worth surfacing in a diff, in report order.
_RECOVERY_KEYS = (
    "faults_injected", "task_retries", "rank_deaths", "tasks_migrated",
    "messages_dropped", "wasted_seconds", "replayed_seconds",
    "recovery_tail_seconds",
)


@dataclass
class RunDiff:
    """Everything that changed between one pair of runs."""

    label_a: str = "a"
    label_b: str = "b"
    makespan_a: float = 0.0
    makespan_b: float = 0.0
    #: category -> (seconds in A, seconds in B)
    phases: dict[str, tuple[float, float]] = field(default_factory=dict)
    #: task -> (final-attempt compute in A, in B); only tasks on both sides
    tasks: dict[int, tuple[float, float]] = field(default_factory=dict)
    new_tasks: list[int] = field(default_factory=list)
    removed_tasks: list[int] = field(default_factory=list)
    #: critical-path bucket totals of each side
    cp_a: dict[str, float] = field(default_factory=dict)
    cp_b: dict[str, float] = field(default_factory=dict)
    recovery_a: dict[str, float] = field(default_factory=dict)
    recovery_b: dict[str, float] = field(default_factory=dict)

    @property
    def makespan_delta(self) -> float:
        return self.makespan_b - self.makespan_a

    def attribution(self) -> dict[str, float]:
        """Critical-path bucket deltas — where the makespan change sits."""
        return {
            b: self.cp_b.get(b, 0.0) - self.cp_a.get(b, 0.0) for b in BUCKETS
        }

    def dominant_bucket(self) -> str:
        """The bucket contributing most of the (absolute) delta."""
        attr = self.attribution()
        return max(attr, key=lambda b: abs(attr[b]))

    def task_deltas(self) -> list[tuple[int, float]]:
        """``(task, compute_b - compute_a)`` sorted by descending |delta|."""
        out = [(t, b - a) for t, (a, b) in self.tasks.items()]
        out.sort(key=lambda x: (-abs(x[1]), x[0]))
        return out

    def phase_deltas(self) -> list[tuple[str, float]]:
        """``(category, seconds_b - seconds_a)`` by descending |delta|."""
        out = [(c, b - a) for c, (a, b) in self.phases.items()]
        out.sort(key=lambda x: (-abs(x[1]), x[0]))
        return out

    def has_fault_activity(self) -> bool:
        return any(
            self.recovery_a.get(k) or self.recovery_b.get(k)
            for k in _RECOVERY_KEYS
        )


def diff_runs(events_a: list[Event], events_b: list[Event]) -> RunDiff:
    """Diff two single-run event streams."""
    sa, sb = run_stats(events_a), run_stats(events_b)
    d = RunDiff(
        label_a=run_label(events_a, "run"),
        label_b=run_label(events_b, "run"),
        makespan_a=sa.makespan,
        makespan_b=sb.makespan,
    )
    pa, pb = sa.category_time, sb.category_time
    for cat in sorted(set(pa) | set(pb)):
        d.phases[cat] = (pa.get(cat, 0.0), pb.get(cat, 0.0))
    dag_a, dag_b = causal_dag(events_a), causal_dag(events_b)
    for t in sorted(set(dag_a.spans) & set(dag_b.spans)):
        d.tasks[t] = (dag_a.spans[t].compute, dag_b.spans[t].compute)
    d.new_tasks = sorted(set(dag_b.spans) - set(dag_a.spans))
    d.removed_tasks = sorted(set(dag_a.spans) - set(dag_b.spans))
    d.cp_a = critical_path(events_a).totals
    d.cp_b = critical_path(events_b).totals
    d.recovery_a = recovery_accounting(events_a)
    d.recovery_b = recovery_accounting(events_b)
    return d


def diff_traces(
    events_a: list[Event], events_b: list[Event]
) -> list[RunDiff]:
    """Diff two (possibly multi-run) traces, pairing runs by position."""
    runs_a, runs_b = split_runs(events_a), split_runs(events_b)
    return [
        diff_runs(a, b) for a, b in zip(runs_a, runs_b)
    ]


def _sec(x: float) -> str:
    return f"{x:.6f}s"


def _signed(x: float) -> str:
    return f"{x:+.6f}s"


def render_diff(d: RunDiff, top: int = 8) -> str:
    """Human-readable report of one run pair."""
    lines = [f"== {d.label_a} -> {d.label_b} =="]
    pct = (
        f", {d.makespan_delta / d.makespan_a:+.1%}"
        if d.makespan_a > 0
        else ""
    )
    lines.append(
        f"makespan {_sec(d.makespan_a)} -> {_sec(d.makespan_b)} "
        f"({_signed(d.makespan_delta)}{pct})"
    )
    attr = d.attribution()
    lines.append(
        "critical-path attribution: "
        + " | ".join(f"{b} {_signed(attr[b])}" for b in BUCKETS)
        + f"  (dominant: {d.dominant_bucket()})"
    )
    phase = d.phase_deltas()
    if phase:
        lines.append("phases (seconds summed over ranks):")
        for cat, delta in phase[:top]:
            a, b = d.phases[cat]
            lines.append(
                f"  {cat:<12} {_sec(a)} -> {_sec(b)}  ({_signed(delta)})"
            )
    moved = [td for td in d.task_deltas() if abs(td[1]) > _EPS]
    if moved:
        lines.append(f"tasks (top {min(top, len(moved))} by |compute delta|):")
        for t, delta in moved[:top]:
            a, b = d.tasks[t]
            lines.append(
                f"  t{t:<6} {_sec(a)} -> {_sec(b)}  ({_signed(delta)})"
            )
    if d.new_tasks:
        lines.append(f"new tasks (only in {d.label_b}): "
                     f"{_id_list(d.new_tasks)}")
    if d.removed_tasks:
        lines.append(f"removed tasks (only in {d.label_a}): "
                     f"{_id_list(d.removed_tasks)}")
    if d.has_fault_activity():
        lines.append("fault/recovery overhead:")
        for k in _RECOVERY_KEYS:
            a = d.recovery_a.get(k, 0.0)
            b = d.recovery_b.get(k, 0.0)
            if a or b:
                if k.endswith("_seconds"):
                    lines.append(f"  {k:<22} {_sec(a)} -> {_sec(b)}")
                else:
                    lines.append(f"  {k:<22} {a:g} -> {b:g}")
    return "\n".join(lines)


def _id_list(ids: list[int], limit: int = 12) -> str:
    shown = ", ".join(f"t{t}" for t in ids[:limit])
    if len(ids) > limit:
        shown += f", ... ({len(ids) - limit} more)"
    return shown
