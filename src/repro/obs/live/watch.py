"""Terminal rendering of live status snapshots (``obs watch``).

Pure functions from a status dict (see
:meth:`~repro.obs.live.status.LiveStatus.snapshot` plus the writer's
stamps) to text — the CLI loop lives in :mod:`repro.obs.cli`.
"""

from __future__ import annotations

__all__ = ["render_status", "render_service_status"]


def _bar(fraction: float, width: int) -> str:
    fraction = min(1.0, max(0.0, fraction))
    filled = int(round(fraction * width))
    return "#" * filled + "-" * (width - filled)


def _seconds(value: float | None) -> str:
    if value is None:
        return "?"
    if value >= 90:
        return f"{value / 60:.1f}m"
    return f"{value:.1f}s"


def _bytes(n: int) -> str:
    for unit in ("B", "kB", "MB", "GB"):
        if n < 1024 or unit == "GB":
            return f"{n:.0f}{unit}" if unit == "B" else f"{n:.1f}{unit}"
        n /= 1024
    return f"{n:.1f}GB"  # pragma: no cover - loop always returns


def _tail(status: dict) -> list[str]:
    """The alert and sketch lines every snapshot kind ends with."""
    lines = []
    alerts = status.get("alerts", [])
    if alerts:
        lines.append("alerts:")
        for a in alerts[-8:]:
            lines.append(f"  [{a['t']:8.2f}s] {a['kind']}: {a['message']}")
    sketches = (status.get("metrics") or {}).get("sketches") or {}
    for name, sk in sorted(sketches.items()):
        lines.append(
            f"{name}: n={sk.get('count', 0)} p50={sk.get('p50', 0):.3g} "
            f"p95={sk.get('p95', 0):.3g} p99={sk.get('p99', 0):.3g}"
        )
    return lines


def render_service_status(status: dict, width: int = 40) -> str:
    """A run-service snapshot (``"kind": "service"``) as a text block."""
    name = status.get("name", "service")
    state = status.get("state", "running")
    pid = status.get("pid", "?")
    depth = status.get("queue_depth", 0)
    q_max = status.get("queue_max", 0)
    fill = depth / q_max if q_max else 0.0
    c = (status.get("metrics") or {}).get("counters") or {}
    lines = [
        f"== {name} (pid {pid}) [{state}] ==",
        (
            f"queue [{_bar(fill, width)}] {depth}/{q_max}  "
            f"running {status.get('running', 0)}/"
            f"{status.get('workers', 0)} workers"
        ),
        (
            f"submitted {c.get('submitted', 0)}  "
            f"completed {c.get('completed', 0)}  "
            f"errors {c.get('errors', 0)}  "
            f"cancelled {c.get('cancelled', 0)}  "
            f"dedup {c.get('dedup_hits', 0)}  "
            f"executed {c.get('runs_executed', 0)}"
        ),
        (
            f"rejected {c.get('rejected', 0)} "
            f"(quota {c.get('rejected_quota', 0)}, "
            f"queue-full {c.get('rejected_queue_full', 0)})  "
            f"plan cache {c.get('plan_cache_hits', 0)}h/"
            f"{c.get('plan_cache_misses', 0)}m  "
            f"graph cache {c.get('graph_cache_hits', 0)}h/"
            f"{c.get('graph_cache_misses', 0)}m"
        ),
    ]
    tenants = status.get("tenants", {})
    if tenants:
        lines.append("tenants:")
        for tenant in sorted(tenants):
            s = tenants[tenant]
            quota = s.get("quota")
            quota_txt = f"/{quota}" if quota is not None else ""
            lines.append(
                f"  {tenant:<12} queued {s.get('queued', 0):<4} "
                f"outstanding {s.get('outstanding', 0)}{quota_txt:<6} "
                f"submitted {s.get('submitted', 0):<5} "
                f"completed {s.get('completed', 0):<5} "
                f"rejected {s.get('rejected', 0):<4} "
                f"dedup {s.get('dedup', 0)}"
            )
    return "\n".join(lines + _tail(status))


def render_status(status: dict, width: int = 40) -> str:
    """One snapshot as a multi-line terminal block."""
    if status.get("kind") == "service":
        return render_service_status(status, width)
    run = status.get("run") or status.get("runtime") or "run"
    state = status.get("state", "running")
    pid = status.get("pid", "?")
    total = status.get("total", 0)
    done = status.get("done", 0)
    progress = status.get("progress", 0.0)
    lines = [
        f"== {run} (pid {pid}) [{state}] ==",
        (
            f"[{_bar(progress, width)}] {progress:6.1%}  "
            f"{done}/{total} tasks  eta {_seconds(status.get('eta'))}  "
            f"t={status.get('t', 0.0):.1f}s"
        ),
        (
            f"queued {status.get('queued', 0)}  "
            f"messages {status.get('messages', 0)}  "
            f"bytes {_bytes(status.get('bytes_sent', 0))}  "
            f"faults {status.get('faults', 0)}  "
            f"retries {status.get('retries', 0)}"
        ),
    ]
    ranks = status.get("ranks", [])
    if ranks:
        # Per-rank completion bars, scaled to the busiest rank so the
        # imbalance is the thing the eye catches.
        top = max((r["done"] for r in ranks), default=0) or 1
        lines.append("ranks:")
        for r in ranks[:32]:
            run_txt = f"  running {r['running']}" if r.get("running") else ""
            lines.append(
                f"  r{r['rank']:<3} [{_bar(r['done'] / top, 16)}] "
                f"done {r['done']}{run_txt}"
            )
        if len(ranks) > 32:
            lines.append(f"  ... {len(ranks) - 32} more ranks")
    running = status.get("running", [])
    if running:
        lines.append("running tasks:")
        straggler_tasks = {
            a["task"]
            for a in status.get("alerts", [])
            if a["kind"] == "straggler"
        }
        for r in running[:8]:
            expected = r.get("expected")
            exp_txt = (
                f"  (expected {expected:.3g}s)" if expected is not None else ""
            )
            mark = "  ** straggler" if r["task"] in straggler_tasks else ""
            lines.append(
                f"  t{r['task']:<6} rank {r['rank']:<3} "
                f"{r['elapsed']:.2f}s{exp_txt}{mark}"
            )
        if len(running) > 8:
            lines.append(f"  ... {len(running) - 8} more in flight")
    return "\n".join(lines + _tail(status))
