"""Virtual-time resource timelines derived from one run's event stream.

Turns the flat event list into per-rank step functions
(:class:`~repro.obs.metrics.TimeSeries`):

* **utilization** — merged busy intervals (compute + overhead) per rank;
* **run-queue depth** — ``task_enqueued`` / ``task_started`` deltas,
  corrected for Charm++ load-balance migrations and rank deaths;
* **per-link in-flight bytes** — ``message_sent`` / ``message_delivered``
  deltas per ``(src, dst)`` proc pair;
* **payload memory** — bytes of delivered-but-unconsumed inputs buffered
  per rank (released when the consuming task first dispatches, matching
  the simulator's release point).

Plus two renderers: :func:`ascii_timeline` (per-rank Gantt with
utilization / queue-peak / memory-peak columns, terminal-friendly) and
:func:`svg_timeline` (a dependency-free SVG Gantt).

Everything is offline analysis over a captured stream; nothing here
runs while the simulator is executing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.events import (
    MESSAGE_DELIVERED,
    MESSAGE_SENT,
    MIGRATION,
    OVERHEAD,
    RANK_DEAD,
    RUN_FINISHED,
    TASK_ENQUEUED,
    TASK_FINISHED,
    TASK_STARTED,
    Event,
)
from repro.obs.metrics import TimeSeries

__all__ = [
    "RunTimelines",
    "resource_timelines",
    "ascii_timeline",
    "svg_timeline",
]


def _merge(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union of possibly-overlapping intervals (multi-core ranks)."""
    if not intervals:
        return []
    intervals.sort()
    merged = [intervals[0]]
    for s, e in intervals[1:]:
        ls, le = merged[-1]
        if s <= le:
            if e > le:
                merged[-1] = (ls, e)
        else:
            merged.append((s, e))
    return merged


def _series_from_deltas(deltas: list[tuple[float, float]]) -> TimeSeries:
    """Cumulative-sum a time-ordered delta list into a step function."""
    ts = TimeSeries()
    deltas.sort(key=lambda d: d[0])
    level = 0.0
    for t, d in deltas:
        level = max(0.0, level + d)
        ts.sample(t, level)
    return ts


@dataclass
class RunTimelines:
    """Per-rank resource step functions of one run."""

    n_procs: int = 0
    makespan: float = 0.0
    #: merged busy (compute+overhead) intervals per rank
    busy: list[list[tuple[float, float]]] = field(default_factory=list)
    #: ready-queue depth per rank
    queue_depth: list[TimeSeries] = field(default_factory=list)
    #: buffered input-payload bytes per rank
    mem_bytes: list[TimeSeries] = field(default_factory=list)
    #: in-flight bytes per (src_proc, dst_proc) link
    inflight_bytes: dict[tuple[int, int], TimeSeries] = field(
        default_factory=dict
    )

    def busy_seconds(self, proc: int) -> float:
        return sum(e - s for s, e in self.busy[proc])

    def utilization(self, proc: int) -> float:
        """Fraction of the makespan rank ``proc`` had work on a core."""
        if self.makespan <= 0:
            return 0.0
        return min(1.0, self.busy_seconds(proc) / self.makespan)

    def utilization_mean(self) -> float:
        if not self.n_procs:
            return 0.0
        return sum(self.utilization(p) for p in range(self.n_procs)) / (
            self.n_procs
        )

    def idle_fraction(self) -> float:
        return 1.0 - self.utilization_mean()

    def imbalance(self) -> float:
        """Load imbalance ``max / mean`` of per-rank utilization (1.0 is
        perfectly balanced, 0.0 when nothing ran) — the run's
        ``imbalance`` gauge."""
        mean = self.utilization_mean()
        if mean <= 0:
            return 0.0
        return max(self.utilization(p) for p in range(self.n_procs)) / mean

    def queue_depth_peak(self, proc: int | None = None) -> float:
        """High-water run-queue depth of one rank (or the whole run)."""
        if proc is not None:
            return self.queue_depth[proc].max()
        return max(
            (ts.max() for ts in self.queue_depth), default=0.0
        )

    def mem_bytes_peak(self, proc: int | None = None) -> float:
        """High-water buffered payload bytes of one rank (or all)."""
        if proc is not None:
            return self.mem_bytes[proc].max()
        return max((ts.max() for ts in self.mem_bytes), default=0.0)

    def inflight_bytes_peak(self) -> float:
        """High-water in-flight bytes over every link."""
        return max(
            (ts.max() for ts in self.inflight_bytes.values()), default=0.0
        )


def resource_timelines(events: list[Event]) -> RunTimelines:
    """Sample one run's events into :class:`RunTimelines`."""
    n_procs = 0
    makespan = 0.0
    busy_raw: dict[int, list[tuple[float, float]]] = {}
    queue_deltas: dict[int, list[tuple[float, float]]] = {}
    link_deltas: dict[tuple[int, int], list[tuple[float, float]]] = {}
    mem_deltas: dict[int, list[tuple[float, float]]] = {}
    #: delivered-but-unconsumed bytes per task: [(rank, nbytes), ...]
    buffered: dict[int, list[tuple[int, int]]] = {}
    started: set[int] = set()

    for ev in sorted(events, key=lambda e: e.t):
        p = ev.proc
        if p >= 0 and p + 1 > n_procs:
            n_procs = p + 1
        if ev.dst_proc >= 0 and ev.dst_proc + 1 > n_procs:
            n_procs = ev.dst_proc + 1
        if ev.type == TASK_FINISHED:
            makespan = max(makespan, ev.t)
            if ev.dur > 0:
                busy_raw.setdefault(p, []).append((ev.t - ev.dur, ev.t))
        elif ev.type == OVERHEAD:
            if ev.dur > 0:
                busy_raw.setdefault(p, []).append((ev.t - ev.dur, ev.t))
        elif ev.type == TASK_ENQUEUED:
            queue_deltas.setdefault(p, []).append((ev.t, 1.0))
        elif ev.type == TASK_STARTED:
            queue_deltas.setdefault(p, []).append((ev.t, -1.0))
            if ev.task >= 0 and ev.task not in started:
                # First dispatch releases the task's buffered inputs
                # (the simulator drops its slot references here too).
                started.add(ev.task)
                for rank, nbytes in buffered.pop(ev.task, ()):
                    mem_deltas.setdefault(rank, []).append(
                        (ev.t, -float(nbytes))
                    )
        elif ev.type == MESSAGE_SENT:
            if ev.dst_proc >= 0 and ev.dst_proc != p:
                link_deltas.setdefault((p, ev.dst_proc), []).append(
                    (ev.t, float(ev.nbytes))
                )
        elif ev.type == MESSAGE_DELIVERED:
            makespan = max(makespan, ev.t)
            if ev.dst_proc >= 0 and ev.dst_proc != p:
                link_deltas.setdefault((p, ev.dst_proc), []).append(
                    (ev.t, -float(ev.nbytes))
                )
            if ev.dst_task >= 0 and ev.dst_task not in started and ev.nbytes:
                rank = ev.dst_proc if ev.dst_proc >= 0 else p
                buffered.setdefault(ev.dst_task, []).append(
                    (rank, ev.nbytes)
                )
                mem_deltas.setdefault(rank, []).append(
                    (ev.t, float(ev.nbytes))
                )
        elif ev.type == MIGRATION:
            # A queued chare left its source PE's ready queue.
            queue_deltas.setdefault(p, []).append((ev.t, -1.0))
        elif ev.type == RANK_DEAD:
            # The dead rank's queue (and buffers) vanish with it; clamp
            # the series to zero with a large negative delta.
            queue_deltas.setdefault(p, []).append((ev.t, float("-inf")))
            mem_deltas.setdefault(p, []).append((ev.t, float("-inf")))
        elif ev.type == RUN_FINISHED:
            makespan = max(makespan, ev.t)

    tl = RunTimelines(n_procs=n_procs, makespan=makespan)
    tl.busy = [_merge(busy_raw.get(p, [])) for p in range(n_procs)]
    tl.queue_depth = [
        _series_from_deltas(queue_deltas.get(p, [])) for p in range(n_procs)
    ]
    tl.mem_bytes = [
        _series_from_deltas(mem_deltas.get(p, [])) for p in range(n_procs)
    ]
    tl.inflight_bytes = {
        link: _series_from_deltas(deltas)
        for link, deltas in sorted(link_deltas.items())
    }
    return tl


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if n < 1024 or unit == "GB":
            return f"{n:.0f}{unit}" if unit == "B" else f"{n:.1f}{unit}"
        n /= 1024
    return f"{n:.1f}GB"


def ascii_timeline(
    events: list[Event], width: int = 64, max_procs: int = 32
) -> str:
    """Per-rank Gantt plus utilization / queue / memory peaks.

    ``#`` cells are compute, ``+`` overhead (compute wins a shared
    cell), ``.`` idle.  Ranks beyond ``max_procs`` are elided.
    """
    tl = resource_timelines(events)
    if tl.makespan <= 0 or not tl.n_procs:
        return "(empty run)"
    scale = width / tl.makespan

    compute_cells: dict[int, set[int]] = {}
    overhead_cells: dict[int, set[int]] = {}
    for ev in events:
        if ev.dur <= 0 or ev.proc < 0:
            continue
        if ev.type == TASK_FINISHED:
            cells = compute_cells.setdefault(ev.proc, set())
        elif ev.type == OVERHEAD:
            cells = overhead_cells.setdefault(ev.proc, set())
        else:
            continue
        a = int((ev.t - ev.dur) * scale)
        b = max(a, min(width - 1, int(ev.t * scale)))
        cells.update(range(a, b + 1))

    lines = [
        f"{'rank':>6}  {'util':>6}  {'q^':>4}  {'mem^':>8}  "
        f"0 {'-' * (width - 4)} {tl.makespan:.6f}s"
    ]
    shown = min(tl.n_procs, max_procs)
    for p in range(shown):
        comp = compute_cells.get(p, set())
        ovh = overhead_cells.get(p, set())
        row = "".join(
            "#" if c in comp else "+" if c in ovh else "."
            for c in range(width)
        )
        lines.append(
            f"p{p:<5}  {tl.utilization(p):>5.1%}  "
            f"{int(tl.queue_depth_peak(p)):>4}  "
            f"{_fmt_bytes(tl.mem_bytes_peak(p)):>8}  |{row}|"
        )
    if tl.n_procs > shown:
        lines.append(f"... {tl.n_procs - shown} more ranks elided ...")
    lines.append(
        f"mean utilization {tl.utilization_mean():.1%}, idle "
        f"{tl.idle_fraction():.1%}; peak in-flight "
        f"{_fmt_bytes(tl.inflight_bytes_peak())} across "
        f"{len(tl.inflight_bytes)} links"
    )
    return "\n".join(lines)


_SVG_COLORS = {
    "compute": "#4e79a7",
    "dispatch": "#f28e2b",
    "staging": "#e15759",
    "serialize": "#76b7b2",
    "launch": "#59a14f",
    "spawn": "#edc948",
    "lb": "#b07aa1",
    "migrate": "#ff9da7",
    "send": "#9c755f",
    "wasted": "#e15759",
}
_SVG_DEFAULT = "#bab0ac"


def svg_timeline(events: list[Event], width: int = 960) -> str:
    """Render one run as a dependency-free SVG Gantt (one lane per rank)."""
    tl = resource_timelines(events)
    lane_h, pad, label_w = 18, 4, 56
    n = max(tl.n_procs, 1)
    height = pad * 2 + n * (lane_h + pad) + 16
    scale = (
        (width - label_w - pad) / tl.makespan if tl.makespan > 0 else 0.0
    )
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for p in range(tl.n_procs):
        y = pad + p * (lane_h + pad)
        parts.append(
            f'<text x="2" y="{y + lane_h - 5}" fill="#333">p{p}</text>'
        )
        parts.append(
            f'<rect x="{label_w}" y="{y}" '
            f'width="{width - label_w - pad}" height="{lane_h}" '
            f'fill="#f2f2f2"/>'
        )
    for ev in sorted(events, key=lambda e: e.t):
        if ev.proc < 0 or ev.dur <= 0:
            continue
        if ev.type == TASK_FINISHED:
            color, title = _SVG_COLORS["compute"], ev.label or f"t{ev.task}"
        elif ev.type == OVERHEAD:
            color = _SVG_COLORS.get(ev.category, _SVG_DEFAULT)
            title = ev.label or ev.category or "overhead"
        else:
            continue
        x = label_w + (ev.t - ev.dur) * scale
        w = max(ev.dur * scale, 0.5)
        y = pad + ev.proc * (lane_h + pad)
        parts.append(
            f'<rect x="{x:.2f}" y="{y}" width="{w:.2f}" '
            f'height="{lane_h}" fill="{color}">'
            f"<title>{title} [{ev.t - ev.dur:.6f}, {ev.t:.6f}]</title>"
            f"</rect>"
        )
    parts.append(
        f'<text x="{label_w}" y="{height - 4}" fill="#333">'
        f"makespan {tl.makespan:.6f}s, {tl.n_procs} ranks, "
        f"mean util {tl.utilization_mean():.1%}</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts)
