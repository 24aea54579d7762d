"""Multi-tenant run service: ``submit(RunRequest) -> RunHandle``.

The one-call :func:`repro.run` facade executes a single graph and
returns.  This package is the persistent front end for everything else:
many threads (tenants) submit :class:`RunRequest`\\ s into one
:class:`RunService`, which queues them behind per-tenant fair-share
admission, coalesces identical in-flight submissions into one
execution, shares materialized graphs and warm compiled plans across
tenants, and reports itself through the observability plane
(counters, latency sketches, SLO bounds, live snapshots).

Quickstart::

    from repro.service import RunRequest, RunService

    with RunService(workers=4, quotas={"batch": 2}) as svc:
        handles = [
            svc.submit(RunRequest(graph, callbacks, inputs,
                                  runtime="serial", tenant="alice"))
            for _ in range(8)
        ]
        results = [h.result() for h in handles]   # one execution, 8 fan-backs

:func:`repro.run` is ``RunRequest(...).build().run(inputs)``; the
service wraps the same two calls, so both entry points produce
bit-identical results.
"""

from repro.service.admission import FairShareQueue, TenantQuota
from repro.service.handle import (
    AdmissionError,
    CancelledError,
    HandleTimeout,
    RunHandle,
    ServiceClosed,
)
from repro.service.options import RunOptions
from repro.service.request import RunRequest, request_key
from repro.service.service import (
    DEFAULT_WORKERS,
    RunService,
    service_status_path,
)

__all__ = [
    "AdmissionError",
    "CancelledError",
    "DEFAULT_WORKERS",
    "FairShareQueue",
    "HandleTimeout",
    "RunHandle",
    "RunOptions",
    "RunRequest",
    "RunService",
    "ServiceClosed",
    "TenantQuota",
    "request_key",
    "service_status_path",
]
