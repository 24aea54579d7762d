"""Aggregate timing statistics of one controller run.

Controllers charge what happened on the simulated cluster — compute,
messages, runtime overheads — to a :class:`Stats`, which is always
collected: during a run its two mappings are the controller's tally,
and when the run returns :meth:`Stats.frozen` makes it a read-only
value.  The full record of a run is its event stream
(:mod:`repro.obs.events`): a :class:`~repro.obs.events.ListSink` keeps
that stream, and :mod:`repro.obs.timeline` /
:mod:`repro.obs.critical_path` read it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Mapping

from repro.util.frozen import FrozenDict


@dataclass(frozen=True)
class Stats:
    """Aggregate timing statistics of one controller run.

    A fresh ``Stats()`` is a tally: :meth:`add` and :meth:`add_callback`
    charge time to its mappings.  A finished run's ``Stats`` is
    :meth:`frozen`: no field and no mapping can change, so one instance
    is shared by every holder of the run's result (copy a mapping, or
    ``dataclasses.replace`` the instance, to derive another).

    Attributes:
        makespan: virtual seconds from start to the last event.
        category_time: summed virtual seconds per category (``compute``,
            ``overhead``, ``serialize``, ``staging``, ...), across all
            procs.
        callback_time: summed virtual *compute* seconds per callback id
            (task type) — the per-stage breakdown of ``compute``.
        tasks_executed: number of task callbacks run.
        messages: number of dataflow messages sent.
        bytes_sent: total dataflow bytes transferred.
    """

    makespan: float = 0.0
    category_time: Mapping[str, float] = field(
        default_factory=lambda: defaultdict(float)
    )
    callback_time: Mapping[int, float] = field(
        default_factory=lambda: defaultdict(float)
    )
    tasks_executed: int = 0
    messages: int = 0
    bytes_sent: int = 0

    def add(self, category: str, duration: float) -> None:
        """Accumulate ``duration`` seconds under ``category``."""
        self.category_time[category] += duration

    def add_callback(self, cid: int, duration: float) -> None:
        """Accumulate compute ``duration`` under callback id ``cid``."""
        self.callback_time[cid] += duration

    def frozen(
        self, makespan: float, tasks_executed: int, messages: int, bytes_sent: int
    ) -> "Stats":
        """The finished run's read-only value: the time charged so far,
        copied once into :class:`~repro.util.frozen.FrozenDict` mappings,
        with these totals."""
        return Stats(
            makespan,
            FrozenDict(self.category_time),
            FrozenDict(self.callback_time),
            tasks_executed,
            messages,
            bytes_sent,
        )

    def get(self, category: str) -> float:
        """Summed seconds for ``category`` (0 when absent)."""
        return self.category_time.get(category, 0.0)

    def summary(self) -> str:
        """One-line textual summary for logs and benchmark output."""
        cats = ", ".join(
            f"{k}={v:.4f}s" for k, v in sorted(self.category_time.items())
        )
        return (
            f"makespan={self.makespan:.4f}s tasks={self.tasks_executed} "
            f"msgs={self.messages} bytes={self.bytes_sent} [{cats}]"
        )

    def breakdown(self) -> str:
        """The per-category totals as an aligned table, largest first."""
        rows = sorted(self.category_time.items(), key=lambda kv: -kv[1])
        if not rows:
            return "(no recorded categories)"
        total = sum(v for _, v in rows)
        width = max(len(k) for k, _ in rows) + 2
        lines = [f"{'category':<{width}}{'seconds':>12}{'share':>9}"]
        for name, secs in rows:
            share = secs / total if total else 0.0
            lines.append(f"{name:<{width}}{secs:>12.6f}{share:>8.1%}")
        lines.append(f"{'total':<{width}}{total:>12.6f}{1:>8.1%}")
        return "\n".join(lines)
