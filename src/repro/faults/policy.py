"""Retry policies: how a controller reacts to a failed attempt.

A :class:`RetryPolicy` is pure data plus two pure functions — the backoff
``delay`` of the next attempt and the retransmission delay of a dropped
message.  Everything is deterministic: the "jitter" that spreads
simultaneous retries apart is a fixed hash of ``(key, attempt)``, never a
random draw, so a seeded run replays bit-identically.

:func:`legacy_policy` is the pre-subsystem behaviour — unlimited
attempts with a flat delay — that the determinism goldens pin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.errors import FaultError

#: Multiplier of the deterministic spread hash (Knuth's 2^32 golden ratio).
_SPREAD_HASH = 2654435761
_SPREAD_BUCKETS = 64


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff, budget, and detection parameters of fault recovery.

    Attributes:
        max_attempts: total attempts allowed per task (first execution
            included); ``None`` means unlimited.  A task whose attempts
            are exhausted raises :class:`~repro.core.errors.FaultError`.
        backoff_base: virtual seconds between the first failure and the
            second attempt.
        backoff_factor: multiplier applied per further failure
            (exponential backoff; ``1.0`` keeps the delay flat).
        backoff_max: cap on the backoff delay.
        spread: deterministic, jitter-free de-synchronization: up to
            ``spread`` extra seconds derived from a fixed hash of the
            task id and attempt number, so retries of different tasks do
            not stampede the same instant while staying reproducible.
        task_timeout: per-attempt timeout in virtual seconds; an attempt
            whose (overhead + compute) occupancy would exceed it is
            aborted at the timeout and counted as a fault.  ``inf``
            disables detection.
    """

    max_attempts: int | None = 8
    backoff_base: float = 0.0
    backoff_factor: float = 2.0
    backoff_max: float = math.inf
    spread: float = 0.0
    task_timeout: float = math.inf

    def __post_init__(self) -> None:
        if self.max_attempts is not None and self.max_attempts < 1:
            raise FaultError(
                f"max_attempts must be >= 1 or None, got {self.max_attempts}"
            )
        if self.backoff_base < 0 or self.backoff_factor < 0:
            raise FaultError("backoff parameters must be non-negative")
        if self.spread < 0:
            raise FaultError(f"spread must be non-negative, got {self.spread}")
        if self.task_timeout <= 0:
            raise FaultError(
                f"task_timeout must be positive, got {self.task_timeout}"
            )

    def delay(self, key: int, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1 = first retry).

        ``key`` (usually the task id) feeds the deterministic spread.
        """
        d = self.backoff_base * self.backoff_factor ** (attempt - 1)
        if d > self.backoff_max:
            d = self.backoff_max
        if self.spread:
            bucket = (key * _SPREAD_HASH + attempt) % _SPREAD_BUCKETS
            d += self.spread * bucket / _SPREAD_BUCKETS
        return d

    def allows_attempt(self, attempts_so_far: int) -> bool:
        """True when another attempt fits in the budget."""
        return self.max_attempts is None or attempts_so_far < self.max_attempts


#: Policy used when a fault plan is installed without an explicit policy.
DEFAULT_RETRY_POLICY = RetryPolicy()


def legacy_policy(fault_retry_delay: float) -> RetryPolicy:
    """The pre-subsystem retry semantics: unlimited attempts, a flat
    delay of ``fault_retry_delay`` virtual seconds, no timeout detection."""
    return RetryPolicy(
        max_attempts=None,
        backoff_base=fault_retry_delay,
        backoff_factor=1.0,
    )
