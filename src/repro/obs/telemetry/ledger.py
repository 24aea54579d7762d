"""Cross-run metrics ledger and trend regression detection.

Every run appends one JSON line — its scalar metrics plus quantile
sketch summaries, keyed by a ``(workload, runtime, machine)``
fingerprint — to a ledger file.  ``python -m repro.obs trends`` (and
the perf harness's ``--ledger`` flag) reads the ledger back and flags
metrics that regressed against the recent history of the same
fingerprint: the cross-run half of SLO enforcement, where a bound on a
single run cannot see a gradual slide.

Detection is deliberately simple and robust: the baseline for an entry
is the *median* of the preceding ``window`` runs of its fingerprint, so
one noisy historical run cannot poison the comparison, and a metric
regresses when it moves beyond ``threshold`` (default 30%) in the bad
direction.  Most metrics are lower-is-better (latencies, makespan,
bytes); the :data:`HIGHER_IS_BETTER` set inverts the test for
throughput-shaped ones.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from statistics import median

__all__ = [
    "HIGHER_IS_BETTER",
    "Ledger",
    "default_machine",
    "detect_regressions",
    "fingerprint",
    "metrics_from_snapshot",
    "render_trends",
]

#: Metrics where a *drop* is the regression (everything else is
#: lower-is-better: latencies, makespan, queue waits, bytes, retries).
HIGHER_IS_BETTER = frozenset(
    {"throughput", "tasks_per_second", "events_per_second", "cache_hit_rate"}
)

#: Bookkeeping keys never compared across runs.
_NON_METRIC_KEYS = frozenset({"ts"})


def default_machine() -> str:
    """A stable machine fingerprint: OS, architecture, Python minor."""
    v = sys.version_info
    return (
        f"{platform.system()}-{platform.machine()}-py{v.major}.{v.minor}"
    ).lower()


def fingerprint(workload: str, runtime: str, machine: str) -> str:
    """The ledger grouping key: runs are only compared within one."""
    return f"{workload}/{runtime}/{machine}"


def metrics_from_snapshot(snapshot) -> dict[str, float]:
    """Flatten a :class:`~repro.obs.metrics.MetricsSnapshot` to ledger
    scalars: counters, gauges, and per-sketch mean/max/percentiles."""
    out: dict[str, float] = {}
    for name, value in getattr(snapshot, "counters", {}).items():
        out[name] = float(value)
    for name, value in getattr(snapshot, "gauges", {}).items():
        out[name] = float(value)
    for name, sk in getattr(snapshot, "sketches", {}).items():
        count = sk.get("count", 0)
        out[f"{name}_count"] = float(count)
        if count:
            out[f"{name}_mean"] = sk.get("total", 0.0) / count
            out[f"{name}_max"] = float(sk.get("max", 0.0))
        for p in ("p50", "p95", "p99"):
            if p in sk:
                out[f"{name}_{p}"] = float(sk[p])
    return out


class Ledger:
    """Append-only JSONL store of per-run metric records."""

    def __init__(self, path: str) -> None:
        self.path = path

    def append(
        self,
        workload: str,
        runtime: str,
        metrics: dict[str, float],
        *,
        machine: str | None = None,
        meta: dict | None = None,
        ts: float | None = None,
    ) -> dict:
        """Append one run record; returns the record written."""
        machine = machine or default_machine()
        record = {
            "fingerprint": fingerprint(workload, runtime, machine),
            "workload": workload,
            "runtime": runtime,
            "machine": machine,
            "ts": time.time() if ts is None else ts,
            "metrics": {k: float(v) for k, v in metrics.items()},
        }
        if meta:
            record["meta"] = meta
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True))
            fh.write("\n")
        return record

    def read(self) -> list[dict]:
        """All records in append order ([] if the file does not exist)."""
        return list(self.iter_entries())

    def iter_entries(self):
        """Stream records one line at a time (the ledger can be huge)."""
        if not os.path.exists(self.path):
            return
        with open(self.path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    yield json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(
                        f"{self.path}:{lineno}: corrupt ledger line: {exc}"
                    ) from exc


def detect_regressions(
    entries,
    *,
    threshold: float = 0.3,
    window: int = 8,
    min_history: int = 1,
    metrics: "list[str] | None" = None,
) -> list[dict]:
    """Compare each fingerprint's latest run to its recent history.

    Args:
        entries: ledger records in append order (any iterable).
        threshold: relative change that counts as a regression (0.3 =
            30% worse than baseline).
        window: how many preceding runs form the baseline (median).
        min_history: minimum preceding runs required before judging.
        metrics: restrict the comparison to these metric names
            (default: every numeric metric shared with the baseline).

    Returns one dict per regressed metric:
    ``{fingerprint, metric, value, baseline, change, n_baseline}``,
    where ``change`` is the signed relative delta vs the baseline.
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    by_fp: dict[str, list[dict]] = {}
    for e in entries:
        by_fp.setdefault(e["fingerprint"], []).append(e)
    regressions: list[dict] = []
    for fp, group in by_fp.items():
        if len(group) < min_history + 1:
            continue
        current = group[-1]["metrics"]
        history = group[-(window + 1):-1]
        names = metrics if metrics is not None else sorted(current)
        for name in names:
            if name in _NON_METRIC_KEYS:
                continue
            value = current.get(name)
            if not isinstance(value, (int, float)):
                continue
            base_values = [
                h["metrics"][name]
                for h in history
                if isinstance(h["metrics"].get(name), (int, float))
            ]
            if len(base_values) < min_history:
                continue
            baseline = median(base_values)
            if baseline == 0:
                continue  # relative change undefined
            change = (value - baseline) / abs(baseline)
            worse = -change if name in HIGHER_IS_BETTER else change
            if worse > threshold:
                regressions.append(
                    {
                        "fingerprint": fp,
                        "metric": name,
                        "value": float(value),
                        "baseline": float(baseline),
                        "change": change,
                        "n_baseline": len(base_values),
                    }
                )
    regressions.sort(
        key=lambda r: (r["fingerprint"], -abs(r["change"]), r["metric"])
    )
    return regressions


def render_trends(
    entries: list[dict],
    regressions: list[dict],
    *,
    threshold: float = 0.3,
) -> str:
    """Human-readable trends report for ``obs trends``."""
    by_fp: dict[str, int] = {}
    for e in entries:
        by_fp[e["fingerprint"]] = by_fp.get(e["fingerprint"], 0) + 1
    lines = [
        f"ledger: {len(entries)} runs across {len(by_fp)} fingerprints"
    ]
    for fp in sorted(by_fp):
        lines.append(f"  {fp}: {by_fp[fp]} runs")
    if not regressions:
        lines.append(f"no regressions beyond {threshold:.0%}")
        return "\n".join(lines)
    lines.append(
        f"{len(regressions)} metric regression(s) beyond {threshold:.0%}:"
    )
    for r in regressions:
        direction = (
            "dropped" if r["metric"] in HIGHER_IS_BETTER else "rose"
        )
        lines.append(
            f"  REGRESSION {r['fingerprint']} {r['metric']}: "
            f"{direction} {abs(r['change']):.1%} "
            f"({r['baseline']:.6g} -> {r['value']:.6g}, "
            f"baseline of {r['n_baseline']})"
        )
    return "\n".join(lines)
