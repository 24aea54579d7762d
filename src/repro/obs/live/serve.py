"""Prometheus text exposition of live status snapshots (``obs serve``).

:func:`prometheus_text` renders a list of status dicts (the writer's
snapshots) in the Prometheus text format (version 0.0.4):
run-level gauges (progress, ETA, running/queued tasks), the run's
:class:`~repro.obs.metrics.MetricsRegistry` counters and gauges, and
telemetry sketches as summaries with p50/p95/p99 quantile samples.
A service snapshot's registry renders the same way under the
``repro_service_`` prefix, so no family mixes a run with a service.
:class:`LiveMetricsServer` is a stdlib ``ThreadingHTTPServer`` serving
that text on ``/metrics``, re-reading the snapshots on every scrape so
an in-flight run's numbers move between scrapes.
"""

from __future__ import annotations

import os
import re
import threading

from repro.obs.live.status import find_status, read_status

__all__ = ["CONTENT_TYPE", "LiveMetricsServer", "prometheus_text"]

#: The Prometheus text exposition content type.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")


def _name(raw: str) -> str:
    """Sanitize a metric name to the Prometheus grammar."""
    clean = _NAME_OK.sub("_", raw)
    if not clean or clean[0].isdigit():
        clean = "_" + clean
    return clean


def _escape(value: str) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace("\n", r"\n")
        .replace('"', r'\"')
    )


def _labels(base: dict[str, str], **extra: str) -> str:
    items = {**base, **extra}
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in items.items())
    return "{" + inner + "}"


class _Families:
    """Accumulates samples grouped by family (HELP/TYPE emitted once)."""

    def __init__(self) -> None:
        self._order: list[str] = []
        self._meta: dict[str, tuple[str, str]] = {}
        self._samples: dict[str, list[str]] = {}

    def add(
        self,
        family: str,
        kind: str,
        help_: str,
        labels: str,
        value,
        suffix: str = "",
    ) -> None:
        if value is None:
            return
        if family not in self._meta:
            self._order.append(family)
            self._meta[family] = (kind, help_)
            self._samples[family] = []
        self._samples[family].append(f"{family}{suffix}{labels} {value:g}")

    def render(self) -> str:
        lines: list[str] = []
        for family in self._order:
            kind, help_ = self._meta[family]
            lines.append(f"# HELP {family} {help_}")
            lines.append(f"# TYPE {family} {kind}")
            lines.extend(self._samples[family])
        return "\n".join(lines) + "\n"


def _registry_families(
    fam: "_Families", prefix: str, base: dict, status: dict
) -> None:
    """Emit a snapshot's embedded MetricsRegistry as ``<prefix><name>``
    families (``repro_`` for runs, ``repro_service_`` for services)."""
    lbl = _labels(base)
    metrics = status.get("metrics") or {}
    for name, value in sorted((metrics.get("counters") or {}).items()):
        fam.add(
            f"{prefix}{_name(name)}_total", "counter",
            f"MetricsRegistry counter {name}.", lbl, value,
        )
    for name, value in sorted((metrics.get("gauges") or {}).items()):
        fam.add(
            f"{prefix}{_name(name)}", "gauge",
            f"MetricsRegistry gauge {name}.", lbl, value,
        )
    for name, sk in sorted((metrics.get("sketches") or {}).items()):
        family = f"{prefix}{_name(name)}"
        help_ = f"Telemetry quantile sketch {name}."
        for q_label, q_key in (
            ("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99"),
        ):
            fam.add(
                family, "summary", help_,
                _labels(base, quantile=q_label), sk.get(q_key),
            )
        fam.add(family, "summary", help_, lbl, sk.get("total"),
                suffix="_sum")
        fam.add(family, "summary", help_, lbl, sk.get("count"),
                suffix="_count")


def _service_families(fam: "_Families", status: dict) -> None:
    """Emit the ``repro_service_*`` families of one service snapshot:
    its registry, plus what the registry does not hold."""
    base = {
        "service": status.get("name", "service"),
        "pid": str(status.get("pid", "")),
    }
    lbl = _labels(base)
    fam.add(
        "repro_service_info", "gauge",
        "Service identity; the state label carries the lifecycle phase.",
        _labels(base, state=status.get("state", "running")), 1.0,
    )
    fam.add(
        "repro_service_workers", "gauge", "Controller slots in the pool.",
        lbl, status.get("workers"),
    )
    fam.add(
        "repro_service_queue_max", "gauge", "Queue capacity bound.",
        lbl, status.get("queue_max"),
    )
    for tenant, st in sorted((status.get("tenants") or {}).items()):
        for key, kind in (
            ("queued", "gauge"),
            ("outstanding", "gauge"),
            ("submitted", "counter"),
            ("completed", "counter"),
            ("rejected", "counter"),
            ("dedup", "counter"),
        ):
            suffix = "_total" if kind == "counter" else ""
            fam.add(
                f"repro_service_tenant_{key}{suffix}", kind,
                f"Per-tenant {key}.",
                _labels(base, tenant=tenant), st.get(key),
            )
    _registry_families(fam, "repro_service_", base, status)


def prometheus_text(statuses: list[dict]) -> str:
    """Render status snapshots as a Prometheus exposition document."""
    fam = _Families()
    fam.add(
        "repro_live_runs", "gauge", "Live status snapshots visible.",
        "", float(len(statuses)),
    )
    for status in statuses:
        if status.get("kind") == "service":
            _service_families(fam, status)
            continue
        base = {
            "run": status.get("run") or status.get("runtime") or "run",
            "pid": str(status.get("pid", "")),
        }
        lbl = _labels(base)
        fam.add(
            "repro_run_info", "gauge",
            "Run identity; the state label carries the lifecycle phase.",
            _labels(base, state=status.get("state", "running"),
                    runtime=status.get("runtime", "")),
            1.0,
        )
        fam.add(
            "repro_run_progress_ratio", "gauge",
            "Completed fraction of the run's tasks.",
            lbl, status.get("progress"),
        )
        fam.add(
            "repro_run_tasks", "gauge", "Total tasks in the run.",
            lbl, status.get("total"),
        )
        fam.add(
            "repro_run_tasks_done", "gauge", "Tasks completed so far.",
            lbl, status.get("done"),
        )
        fam.add(
            "repro_run_tasks_running", "gauge",
            "Task attempts on a core right now.",
            lbl, float(len(status.get("running", []))),
        )
        fam.add(
            "repro_run_tasks_queued", "gauge",
            "Tasks ready but not yet dispatched.",
            lbl, status.get("queued"),
        )
        fam.add(
            "repro_run_eta_seconds", "gauge",
            "Estimated seconds to completion (absent before first task).",
            lbl, status.get("eta"),
        )
        fam.add(
            "repro_run_elapsed_seconds", "gauge",
            "Run-relative time of this snapshot.",
            lbl, status.get("t"),
        )
        fam.add(
            "repro_run_messages_total", "counter",
            "Dataflow messages routed so far.",
            lbl, status.get("messages"),
        )
        fam.add(
            "repro_run_bytes_sent_total", "counter",
            "Dataflow payload bytes routed so far.",
            lbl, status.get("bytes_sent"),
        )
        fam.add(
            "repro_run_faults_total", "counter",
            "Faults injected so far.", lbl, status.get("faults"),
        )
        fam.add(
            "repro_run_retries_total", "counter",
            "Attempt retries so far.", lbl, status.get("retries"),
        )
        fam.add(
            "repro_run_alerts", "gauge", "Standing alerts by kind.",
            _labels(base, kind="straggler"),
            float(len(status.get("alerts", []))),
        )
        _registry_families(fam, "repro_", base, status)
    return fam.render()


class LiveMetricsServer:
    """``/metrics`` over stdlib HTTP, re-reading snapshots per scrape.

    ``path`` is a status file or directory (missing snapshots scrape as
    ``repro_live_runs 0`` rather than erroring — the run may simply not
    have started yet).  ``port=0`` binds an ephemeral port, exposed as
    ``.port`` after construction.
    """

    def __init__(self, path: str, addr: str = "127.0.0.1", port: int = 0):
        # Imported here: ``import repro`` reaches this module, and only a
        # server needs ``http.server`` (which drags ``email`` in).
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        status_path = path

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (stdlib casing)
                route = self.path.split("?", 1)[0]
                if route in ("/", "/metrics"):
                    body = prometheus_text(
                        _load_statuses(status_path)
                    ).encode()
                    self.send_response(200)
                    self.send_header("Content-Type", CONTENT_TYPE)
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                elif route == "/healthz":
                    self.send_response(200)
                    self.send_header("Content-Length", "3")
                    self.end_headers()
                    self.wfile.write(b"ok\n")
                else:
                    self.send_error(404)

            def log_message(self, *args) -> None:  # silence per-scrape spam
                pass

        self._httpd = ThreadingHTTPServer((addr, port), Handler)
        self._httpd.daemon_threads = True
        self.addr = addr
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-live-serve",
            daemon=True,
        )

    @property
    def url(self) -> str:
        return f"http://{self.addr}:{self.port}/metrics"

    def start(self) -> None:
        self._thread.start()

    def join(self) -> None:
        self._thread.join()

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()


def _load_statuses(path: str) -> list[dict]:
    """Tolerant snapshot loader for the scrape path: skip what's broken."""
    if not os.path.exists(path):
        return []
    try:
        paths = find_status(path)
    except ValueError:
        return []
    out = []
    for p in paths:
        try:
            out.append(read_status(p))
        except (OSError, ValueError):
            continue
    return out
