"""Future-like handles and the service's admission/cancellation errors.

:meth:`RunService.submit` returns a :class:`RunHandle` immediately; the
execution happens on a controller slot.  Handles are thread-safe: many
threads may call ``result()`` on the same handle, and several handles
may resolve from one coalesced execution — each waiter gets the *same*
read-only :class:`~repro.runtimes.result.RunResult`, which is what
makes dedup fan-back bit-identical by construction.
"""

from __future__ import annotations

import threading
import time

from repro.core.errors import ControllerError

__all__ = [
    "AdmissionError",
    "CancelledError",
    "RunHandle",
    "ServiceClosed",
    "HandleTimeout",
]


class AdmissionError(ControllerError):
    """A submission was rejected at the door, with a machine-readable
    reason (``"queue-full"`` or ``"tenant-quota"``)."""

    def __init__(self, reason: str, message: str) -> None:
        super().__init__(message)
        self.reason = reason


class CancelledError(ControllerError):
    """``result()`` on a handle whose request was cancelled."""


class ServiceClosed(ControllerError):
    """``submit()`` on a service that has been closed."""


class HandleTimeout(TimeoutError):
    """``result(timeout=...)`` expired before the run resolved."""


#: The event of every resolved handle.  A handle drops its own event
#: (a lock, a condition and a deque, ~1 KB) once it resolves: callers
#: keep handles for as long as they keep results.  Set, never cleared.
_RESOLVED = threading.Event()
_RESOLVED.set()

#: Handle lifecycle states (``RunHandle.status``).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
ERROR = "error"
CANCELLED = "cancelled"


class RunHandle:
    """The caller's end of one submitted request.

    Future-like surface: :meth:`result` blocks (optionally bounded) for
    the run's :class:`~repro.runtimes.result.RunResult`, :attr:`status`
    reports the lifecycle phase, :meth:`cancel` withdraws a queued
    request.  ``dedup`` is True when this handle attached to another
    submission's in-flight execution instead of enqueueing its own.
    """

    __slots__ = (
        "tenant",
        "dedup",
        "submitted_ts",
        "started_ts",
        "finished_ts",
        "_service",
        "_entry",
        "_event",
        "_status",
        "_result",
        "_exc",
    )

    def __init__(self, request, service, entry=None) -> None:
        self.tenant = request.tenant
        self.dedup = False
        self.submitted_ts = time.monotonic()
        self.started_ts: float | None = None
        self.finished_ts: float | None = None
        self._service = service
        self._entry = entry
        self._event = threading.Event()
        self._status = QUEUED
        self._result = None
        self._exc: BaseException | None = None

    # ------------------------------------------------------------------ #
    # Caller surface
    # ------------------------------------------------------------------ #

    @property
    def status(self) -> str:
        """``queued`` | ``running`` | ``done`` | ``error`` | ``cancelled``."""
        return self._status

    def done(self) -> bool:
        """True once the handle resolved (result, error, or cancel)."""
        return self._event.is_set()

    def result(self, timeout: float | None = None):
        """Block for the run result.

        Raises:
            HandleTimeout: ``timeout`` expired first.
            CancelledError: the request was cancelled.
            Exception: whatever the execution raised, re-raised here.
        """
        if not self._event.wait(timeout):
            raise HandleTimeout(
                f"run did not resolve within {timeout}s "
                f"(status: {self._status})"
            )
        if self._status == CANCELLED:
            raise CancelledError("request was cancelled")
        if self._exc is not None:
            raise self._exc
        return self._result

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """The execution's exception, or ``None`` on success.

        Raises:
            HandleTimeout: ``timeout`` expired first.
            CancelledError: the request was cancelled.
        """
        if not self._event.wait(timeout):
            raise HandleTimeout(
                f"run did not resolve within {timeout}s "
                f"(status: {self._status})"
            )
        if self._status == CANCELLED:
            raise CancelledError("request was cancelled")
        return self._exc

    def cancel(self) -> bool:
        """Withdraw the request if it has not started executing.

        Returns True when the handle is now cancelled; False when the
        execution already started (running work is never interrupted)
        or already resolved.
        """
        return self._service._cancel(self)

    def wait(self, timeout: float | None = None) -> bool:
        """Block until resolved (or ``timeout``); returns :meth:`done`."""
        return self._event.wait(timeout)

    # ------------------------------------------------------------------ #
    # Service-side resolution
    # ------------------------------------------------------------------ #

    def _mark_running(self, ts: float) -> None:
        if self._status == QUEUED:
            self._status = RUNNING
            self.started_ts = ts

    def _resolve(self, result, exc: BaseException | None, ts: float) -> None:
        self.finished_ts = ts
        if exc is not None:
            self._exc = exc
            self._status = ERROR
        else:
            self._result = result
            self._status = DONE
        self._set()

    def _mark_cancelled(self) -> None:
        self._status = CANCELLED
        self.finished_ts = time.monotonic()
        self._set()

    def _set(self) -> None:
        # A caller already blocked holds the handle's own event and wakes.
        event, self._event = self._event, _RESOLVED
        event.set()
