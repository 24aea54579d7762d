"""The multi-tenant run service: ``submit(RunRequest) -> RunHandle``.

One persistent :class:`RunService` absorbs concurrent run submissions
from many threads/tenants and drives them through a bounded fair-share
queue onto a pool of controller slots.  It composes the pieces earlier
PRs built:

* **Cross-tenant caching** — graphs are materialized once per
  structural fingerprint (:func:`~repro.sched.compile.graph_fingerprint`)
  and shared; ``compile=True`` requests hit the process-wide
  :data:`~repro.sched.compile.PLAN_CACHE`, with the service accounting
  warm/cold per request.
* **Batching/dedup** — identical in-flight submissions (equal
  :func:`~repro.service.request.request_key`) coalesce into one
  execution fanned back to every waiter; all handles resolve with the
  same read-only :class:`~repro.runtimes.result.RunResult`.
* **Fair-share admission** — per-tenant quotas and round-robin
  dispatch (:mod:`repro.service.admission`), with a reject-with-reason
  path (:class:`~repro.service.handle.AdmissionError`) when saturated.
* **Observability** — queue/admission/cache counters and
  submit-to-done latency sketches in a
  :class:`~repro.obs.metrics.MetricsRegistry`, SLO bounds as
  ``max_<metric>`` / ``min_<metric>`` keys (:func:`eval_spec`),
  lifecycle events (:data:`~repro.obs.events.SERVICE_VOCABULARY`), and
  live snapshots for ``python -m repro.obs watch`` / ``serve``.

Each execution is the same two calls :func:`repro.run` makes —
``request.build(shared_graph).run(request.inputs)`` — so a handle
resolves to exactly what the synchronous facade would have returned.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict, deque

from repro.obs.events import (
    Event,
    SERVICE_CANCELLED,
    SERVICE_DEDUP,
    SERVICE_REJECTED,
    SERVICE_RUN_FINISHED,
    SERVICE_RUN_STARTED,
    SERVICE_SLO_BREACH,
    SERVICE_SUBMITTED,
)
from repro.obs.live.status import ENV_LIVE_DIR, StatusWriter
from repro.obs.metrics import MetricsRegistry
from repro.service.admission import FairShareQueue, TenantQuota
from repro.service.handle import (
    CANCELLED,
    AdmissionError,
    RunHandle,
    ServiceClosed,
)
from repro.service.request import HashedKey, RunRequest, request_key

__all__ = ["RunService", "DEFAULT_WORKERS", "eval_spec", "service_status_path"]

#: Default controller slots for an explicitly constructed service.
DEFAULT_WORKERS = 4

#: Quantiles surfaced as ``<sketch>_pNN`` SLO metrics.
_QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))

#: Latency sketches the service feeds.
_SKETCHES = ("submit_to_done_seconds", "queue_wait_seconds", "run_seconds")

#: Counter names pre-registered so snapshots show explicit zeros.
_COUNTERS = (
    "submitted",
    "admitted",
    "rejected",
    "rejected_quota",
    "rejected_queue_full",
    "dedup_hits",
    "runs_executed",
    "completed",
    "errors",
    "cancelled",
    "plan_cache_hits",
    "plan_cache_misses",
    "graph_cache_hits",
    "graph_cache_misses",
    "slo_breaches",
)


def service_status_path(status_dir: str) -> str:
    """This process's service snapshot (the ``live-`` prefix keeps it
    discoverable by :func:`repro.obs.live.find_status`; ``"kind":
    "service"`` routes it to the service renderers)."""
    return os.path.join(status_dir, f"live-service-{os.getpid()}.json")


def eval_spec(metrics: dict[str, float], spec: dict) -> list[str]:
    """Check ``max_<name>`` / ``min_<name>`` bounds against a metric dict.

    ``{"max_submit_to_done_seconds_p99": 0.5, "min_dedup_rate": 0.1}``
    holds when every named metric is at most / at least its bound.

    Returns the violations as human-readable strings (empty = pass).
    Raises ValueError for unknown spec keys.
    """
    violations = []
    for key, bound in spec.items():
        if key.startswith("max_"):
            name, is_max = key[4:], True
        elif key.startswith("min_"):
            name, is_max = key[4:], False
        else:
            raise ValueError(
                f"SLO key {key!r} must start with 'max_' or 'min_'"
            )
        if name not in metrics:
            raise ValueError(
                f"unknown SLO metric {name!r} (have: "
                f"{', '.join(sorted(metrics))})"
            )
        value = metrics[name]
        if (is_max and value > bound) or (not is_max and value < bound):
            op = ">" if is_max else "<"
            violations.append(f"{key}: {name} = {value:g} {op} {bound:g}")
    return violations


class _Entry:
    """One queued-or-running execution, shared by its waiters."""

    __slots__ = (
        "request",
        "tenant",
        "key",
        "waiters",
        "state",  # queued | running | resolved
        "cancelled",
        "enqueue_ts",
    )

    def __init__(self, request: RunRequest, key, handle: RunHandle) -> None:
        self.request = request
        self.tenant = request.tenant
        self.key = key
        self.waiters = [handle]
        self.state = "queued"
        self.cancelled = False
        self.enqueue_ts = time.monotonic()


class RunService:
    """A persistent, multi-tenant front end over the runtime registry.

    Args:
        workers: controller slots (worker threads), at least 1.
        max_queue: bound on queued (not yet running) requests; beyond
            it submissions are rejected with reason ``"queue-full"``.
        quota: default per-tenant outstanding bound (int or
            :class:`~repro.service.admission.TenantQuota`; ``None`` =
            unbounded).
        quotas: per-tenant overrides, ``{tenant: quota}``.
        slo: declarative bounds, a dict of ``max_<metric>`` /
            ``min_<metric>`` keys over :meth:`slo_metrics` names
            (:func:`eval_spec`); breaches are counted, alerted,
            and reported by :meth:`slo_violations`.  Validated eagerly.
        status_dir: directory for live service snapshots
            (``live-service-<pid>.json``).  ``None`` falls back to
            ``$REPRO_LIVE_DIR``; with neither set no snapshot is written.
        status_interval: seconds between snapshots.
        sinks: service-level event sinks receiving
            :data:`~repro.obs.events.SERVICE_VOCABULARY` events.
        name: label used in snapshots and metrics.
    """

    def __init__(
        self,
        workers: int = DEFAULT_WORKERS,
        *,
        max_queue: int = 256,
        quota: "TenantQuota | int | None" = None,
        quotas: dict | None = None,
        slo: dict | None = None,
        status_dir: str | None = None,
        status_interval: float = 0.5,
        sinks=(),
        name: str = "repro-service",
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.name = name
        self._sinks = list(sinks)
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._queue = FairShareQueue(max_queue, quota, quotas)
        self._inflight: dict[tuple, _Entry] = {}
        self._graphs: OrderedDict = OrderedDict()
        self._graphs_max = 64
        self._running = 0
        self._closed = False
        self._started_ts = time.time()
        self._t0 = time.monotonic()
        self._tenants: dict[str, dict[str, int]] = {}
        self._alerts: deque = deque(maxlen=64)
        self.metrics = MetricsRegistry()
        for cname in _COUNTERS:
            self.metrics.counter(cname)
        self._sketches = {s: self.metrics.sketch(s) for s in _SKETCHES}
        self._slo = dict(slo) if slo else None
        self._slo_seen: set[str] = set()
        if self._slo:
            self._validate_slo(self._slo)
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"{name}-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for t in self._threads:
            t.start()
        self._status_writer = None
        status_dir = status_dir or os.environ.get(ENV_LIVE_DIR)
        if status_dir:
            self._status_writer = StatusWriter(
                service_status_path(status_dir), self.snapshot, status_interval
            )

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #

    def submit(self, request: RunRequest) -> RunHandle:
        """Enqueue one request; returns immediately with a handle.

        Raises:
            ServiceClosed: the service was closed.
            AdmissionError: the tenant is at quota (``reason ==
                "tenant-quota"``) or the queue is full (``reason ==
                "queue-full"``).
        """
        if not isinstance(request, RunRequest):
            raise TypeError(
                f"submit() takes a RunRequest, got {type(request).__name__}"
            )
        handle = RunHandle(request, self)
        # Off the lock: the inputs' token, the costliest step.
        key = request_key(request)
        if key is not None:
            key = HashedKey(key)
        with self._lock:
            if self._closed:
                raise ServiceClosed("submit() on a closed RunService")
            self.metrics.counter("submitted").inc()
            self._tenant_stat(request.tenant, "submitted")
            self._emit(SERVICE_SUBMITTED, tenant=request.tenant)
            if key is not None:
                twin = self._inflight.get(key)
                if twin is not None and twin.state != "resolved":
                    twin.waiters.append(handle)
                    handle.dedup = True
                    handle._entry = twin
                    if twin.state == "running":
                        handle._mark_running(time.monotonic())
                    self.metrics.counter("dedup_hits").inc()
                    self._tenant_stat(request.tenant, "dedup")
                    self._emit(SERVICE_DEDUP, tenant=request.tenant)
                    return handle
            try:
                self._queue.admit(request.tenant)
            except AdmissionError as err:
                self.metrics.counter("rejected").inc()
                reason = err.reason.replace("-", "_").replace(
                    "tenant_quota", "quota"
                )
                self.metrics.counter(f"rejected_{reason}").inc()
                self._tenant_stat(request.tenant, "rejected")
                self._emit(
                    SERVICE_REJECTED,
                    tenant=request.tenant,
                    reason=err.reason,
                )
                raise
            entry = _Entry(request, key, handle)
            handle._entry = entry
            self.metrics.counter("admitted").inc()
            self._queue.push(entry)
            if key is not None:
                self._inflight[key] = entry
            self._gauge_queue()
            self._wakeup.notify()
        return handle

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def _worker(self) -> None:
        while True:
            with self._wakeup:
                while not self._closed and self._queue.depth == 0:
                    self._wakeup.wait(0.5)
                if self._queue.depth == 0 and self._closed:
                    return
                entry = self._queue.take()
                if entry is None:
                    continue
                entry.state = "running"
                now = time.monotonic()
                for h in entry.waiters:
                    h._mark_running(now)
                self._running += 1
                self._gauge_queue()
            self._execute(entry)

    def _execute(self, entry: _Entry) -> None:
        req = entry.request
        t_started = time.monotonic()
        queue_wait = t_started - entry.enqueue_ts
        self._emit(SERVICE_RUN_STARTED, tenant=req.tenant)
        result = None
        controller = None
        exc: BaseException | None = None
        try:
            controller = req.build(self._shared_graph(req.graph))
            result = controller.run(req.inputs)
        except Exception as e:
            exc = e
        finished = time.monotonic()
        # What the controller itself saw in PLAN_CACHE; None (a
        # fallback, compile off, a failed build) counts neither way.
        plan_hit = None if controller is None else controller.plan_cache_hit
        # Dropped before any handle resolves: a handle the caller keeps
        # must pin none of the request's inputs.
        del req, controller
        with self._lock:
            entry.state = "resolved"
            if entry.key is not None and self._inflight.get(entry.key) is entry:
                del self._inflight[entry.key]
            # Handles keep their entry; the key (a token per input
            # payload) is only good for coalescing while in flight, and
            # the request (every input) only until the run ends.
            entry.key = None
            entry.request = None
            self._queue.release(entry.tenant)
            self._running -= 1
            self._gauge_queue()
            waiters = [h for h in entry.waiters if h.status != CANCELLED]
            self.metrics.counter("runs_executed").inc()
            kind = "errors" if exc is not None else "completed"
            self.metrics.counter(kind).inc(len(waiters))
            for h in waiters:
                self._tenant_stat(h.tenant, kind)
            if plan_hit is not None:
                self.metrics.counter(
                    "plan_cache_hits" if plan_hit else "plan_cache_misses"
                ).inc()
            self._sketches["queue_wait_seconds"].observe(max(0.0, queue_wait))
            self._sketches["run_seconds"].observe(finished - t_started)
            lat = self._sketches["submit_to_done_seconds"]
            for h in waiters:
                lat.observe(max(0.0, finished - h.submitted_ts))
            self._emit(
                SERVICE_RUN_FINISHED,
                tenant=entry.tenant,
                dur=finished - t_started,
                ok=exc is None,
            )
            self._check_slo_locked()
        for h in waiters:
            h._resolve(result, exc, finished)

    # ------------------------------------------------------------------ #
    # Cancellation
    # ------------------------------------------------------------------ #

    def _cancel(self, handle: RunHandle) -> bool:
        with self._lock:
            entry = handle._entry
            if entry is None or handle.done() or handle.status != "queued":
                return False
            if entry.state != "queued":
                return False
            if handle in entry.waiters:
                entry.waiters.remove(handle)
            self.metrics.counter("cancelled").inc()
            self._tenant_stat(handle.tenant, "cancelled")
            self._emit(SERVICE_CANCELLED, tenant=handle.tenant)
            if not entry.waiters:
                entry.cancelled = True
                entry.state = "resolved"
                self._queue.remove(entry)
                if (
                    entry.key is not None
                    and self._inflight.get(entry.key) is entry
                ):
                    del self._inflight[entry.key]
                # As in _execute: the cancelled handle keeps its entry,
                # neither the key nor the request's inputs.
                entry.key = None
                entry.request = None
                self._gauge_queue()
        handle._mark_cancelled()
        return True

    # ------------------------------------------------------------------ #
    # Cross-tenant caches
    # ------------------------------------------------------------------ #

    def _shared_graph(self, graph):
        """The shared materialized view of ``graph`` (or ``graph``)."""
        from repro.sched.compile import graph_fingerprint

        try:
            fp = graph_fingerprint(graph)
        except Exception:
            return graph
        with self._lock:
            shared = self._graphs.get(fp)
            if shared is not None:
                self._graphs.move_to_end(fp)
                self.metrics.counter("graph_cache_hits").inc()
                return shared
            self.metrics.counter("graph_cache_misses").inc()
        shared = graph.cached()
        with self._lock:
            self._graphs[fp] = shared
            while len(self._graphs) > self._graphs_max:
                self._graphs.popitem(last=False)
        return shared

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #

    def _emit(self, type_: str, tenant: str = "", reason: str = "",
              dur: float = 0.0, ok: bool = True) -> None:
        if not self._sinks:
            return
        ev = Event(
            type=type_,
            t=time.monotonic() - self._t0,
            dur=dur,
            category=reason or ("" if ok else "error"),
            label=tenant,
        )
        for sink in self._sinks:
            sink.emit(ev)

    def _tenant_stat(self, tenant: str, key: str) -> None:
        stats = self._tenants.get(tenant)
        if stats is None:
            stats = self._tenants[tenant] = {}
        stats[key] = stats.get(key, 0) + 1

    def _gauge_queue(self) -> None:
        depth = self._queue.depth
        self.metrics.gauge("queue_depth").set(depth)
        self.metrics.gauge("queue_depth_peak").set_max(depth)
        self.metrics.gauge("running").set(self._running)

    # ------------------------------------------------------------------ #
    # SLO surface
    # ------------------------------------------------------------------ #

    def slo_metrics(self) -> dict:
        """The service-level metric namespace SLO specs bound against."""
        with self._lock:
            return self._slo_metrics_locked()

    def _slo_metrics_locked(self) -> dict:
        c = lambda name: self.metrics.counter(name).value
        out = {name: c(name) for name in _COUNTERS}
        out["queue_depth"] = self._queue.depth
        out["queue_depth_peak"] = self.metrics.gauge("queue_depth_peak").value
        out["running"] = self._running
        plan_lookups = c("plan_cache_hits") + c("plan_cache_misses")
        out["plan_cache_hit_rate"] = c("plan_cache_hits") / max(1, plan_lookups)
        graph_lookups = c("graph_cache_hits") + c("graph_cache_misses")
        out["graph_cache_hit_rate"] = (
            c("graph_cache_hits") / max(1, graph_lookups)
        )
        dedup_base = c("dedup_hits") + c("runs_executed")
        out["dedup_rate"] = c("dedup_hits") / max(1, dedup_base)
        for name, sketch in self._sketches.items():
            for suffix, q in _QUANTILES:
                out[f"{name}_{suffix}"] = sketch.quantile(q)
        return out

    def _validate_slo(self, spec: dict) -> None:
        eval_spec(self._slo_metrics_locked(), spec)

    def _check_slo_locked(self) -> None:
        if not self._slo:
            return
        for violation in eval_spec(self._slo_metrics_locked(), self._slo):
            if violation in self._slo_seen:
                continue
            self._slo_seen.add(violation)
            self.metrics.counter("slo_breaches").inc()
            self._alerts.append(
                {
                    "kind": "slo",
                    "t": time.monotonic() - self._t0,
                    "message": violation,
                }
            )
            self._emit(SERVICE_SLO_BREACH, reason=violation)

    def slo_violations(self) -> list[str]:
        """Every distinct SLO violation observed so far (empty = healthy)."""
        with self._lock:
            if self._slo:
                for v in eval_spec(self._slo_metrics_locked(), self._slo):
                    self._slo_seen.add(v)
            return sorted(self._slo_seen)

    # ------------------------------------------------------------------ #
    # Snapshots
    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict:
        """One JSON-serializable status document (see docs/service.md).

        Every counter is the registry's, under ``metrics.counters``.
        """
        from repro.sched.compile import PLAN_CACHE

        with self._lock:
            tenants = {}
            queued = self._queue.queued_by_tenant()
            for tenant in sorted(
                set(self._tenants) | set(queued) | set(self._queue.outstanding)
            ):
                stats = dict(self._tenants.get(tenant, {}))
                stats["queued"] = queued.get(tenant, 0)
                stats["outstanding"] = self._queue.outstanding.get(tenant, 0)
                quota = self._queue.quota_for(tenant).max_inflight
                if quota is not None:
                    stats["quota"] = quota
                tenants[tenant] = stats
            doc = {
                "kind": "service",
                "name": self.name,
                "pid": os.getpid(),
                "state": "closed" if self._closed else "running",
                "started_ts": self._started_ts,
                "workers": self.workers,
                "queue_depth": self._queue.depth,
                "queue_max": self._queue.max_depth,
                "running": self._running,
                "plan_cache": PLAN_CACHE.stats(),
                "tenants": tenants,
                "alerts": list(self._alerts),
                "metrics": self.metrics.snapshot().to_dict(),
            }
            if self._slo:
                doc["slo_spec"] = dict(self._slo)
            return doc

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self, wait: bool = True, timeout: float | None = None) -> None:
        """Stop accepting submissions; drain the queue, then stop.

        Queued work is still executed (its submitters hold handles);
        with ``wait`` the call blocks until every worker exits.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._wakeup.notify_all()
        if wait:
            for t in self._threads:
                t.join(timeout)
        if self._status_writer is not None:
            self._status_writer.close("closed")
        for sink in self._sinks:
            sink.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "RunService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
