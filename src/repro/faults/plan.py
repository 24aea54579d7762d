"""Fault plans: what goes wrong, where, and when.

A :class:`FaultPlan` is an immutable schedule of injected failures that a
simulated controller executes against its own run:

* :class:`TaskFault` — a transient per-task hiccup: the first ``count``
  attempts of a task fail after consuming their full compute time (the
  paper's idempotence argument makes re-execution safe).
* :class:`RankDeath` — a permanent process failure at a virtual time;
  every buffered input, queued task, and running attempt on that rank is
  lost and must be recovered by re-placement plus lineage replay.
* :class:`LinkFault` — network degradation or loss on a directed proc
  pair (or wildcard) during a virtual-time window: bandwidth scaling,
  added latency, or outright message drops recovered by sender-side
  retransmission.

Plans are deterministic by construction: :meth:`FaultPlan.random` draws
from ``random.Random(seed)`` — never wall clock — so a seeded chaos run
replays bit-identically.  A plan is *consumed per run*: controllers
materialize a fresh budget from the immutable plan at the start of every
``run()``, so running twice injects the same faults twice.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.core.errors import FaultError
from repro.core.ids import TaskId


@dataclass(frozen=True)
class TaskFault:
    """The first ``count`` attempts of task ``tid`` fail (transient)."""

    tid: TaskId
    count: int = 1

    def __post_init__(self) -> None:
        if self.count < 1:
            raise FaultError(f"TaskFault count must be >= 1, got {self.count}")


@dataclass(frozen=True)
class RankDeath:
    """Rank ``proc`` dies permanently at virtual time ``at``."""

    proc: int
    at: float = 0.0

    def __post_init__(self) -> None:
        if self.proc < 0:
            raise FaultError(f"RankDeath proc must be >= 0, got {self.proc}")
        if self.at < 0:
            raise FaultError(f"RankDeath time must be >= 0, got {self.at}")


@dataclass(frozen=True)
class LinkFault:
    """Degrade (or drop on) the directed link ``src -> dst``.

    ``src``/``dst`` of ``-1`` are wildcards.  Active during
    ``[start, end)``.  ``bandwidth_factor`` scales the link's effective
    bandwidth (``0.5`` halves it), ``extra_latency`` adds to the wire
    latency, ``drop=True`` loses every message injected in the window
    (recovered by retransmission under the controller's retry policy).
    """

    src: int = -1
    dst: int = -1
    start: float = 0.0
    end: float = math.inf
    bandwidth_factor: float = 1.0
    extra_latency: float = 0.0
    drop: bool = False

    def __post_init__(self) -> None:
        if self.bandwidth_factor <= 0:
            raise FaultError(
                f"bandwidth_factor must be positive, got {self.bandwidth_factor}"
            )
        if self.extra_latency < 0:
            raise FaultError("extra_latency must be non-negative")
        if self.end < self.start:
            raise FaultError(f"window [{self.start}, {self.end}) is empty")

    def matches(self, src: int, dst: int, now: float) -> bool:
        """True when this fault applies to a message on ``src -> dst`` now."""
        return (
            (self.src == -1 or self.src == src)
            and (self.dst == -1 or self.dst == dst)
            and self.start <= now < self.end
        )


class LinkFaultTable:
    """Per-send evaluation of a plan's link faults (cluster-side).

    The table is consulted once per cross-proc message; with no matching
    fault it returns the inputs unchanged.
    """

    __slots__ = ("faults",)

    def __init__(self, faults: Iterable[LinkFault]) -> None:
        self.faults = tuple(faults)

    def __bool__(self) -> bool:
        return bool(self.faults)

    def apply(
        self, src: int, dst: int, now: float, inject: float, latency: float
    ) -> tuple[float, float, bool]:
        """Return ``(inject, latency, dropped)`` after active faults."""
        dropped = False
        for f in self.faults:
            if f.matches(src, dst, now):
                if f.drop:
                    dropped = True
                inject /= f.bandwidth_factor
                latency += f.extra_latency
        return inject, latency, dropped


class FaultPlan:
    """Immutable schedule of task faults, rank deaths, and link faults.

    Args:
        task_faults: mapping ``{task_id: count}`` or iterable of
            :class:`TaskFault` (counts for duplicate ids accumulate).
        rank_deaths: iterable of :class:`RankDeath`.
        link_faults: iterable of :class:`LinkFault`.
    """

    __slots__ = ("task_faults", "rank_deaths", "link_faults")

    def __init__(
        self,
        task_faults: Mapping[TaskId, int] | Iterable[TaskFault] = (),
        rank_deaths: Iterable[RankDeath] = (),
        link_faults: Iterable[LinkFault] = (),
    ) -> None:
        budget: dict[TaskId, int] = {}
        if isinstance(task_faults, Mapping):
            items: Iterable[TaskFault] = (
                TaskFault(tid, count) for tid, count in task_faults.items()
            )
        else:
            items = task_faults
        for f in items:
            budget[f.tid] = budget.get(f.tid, 0) + f.count
        self.task_faults: dict[TaskId, int] = budget
        self.rank_deaths: tuple[RankDeath, ...] = tuple(
            sorted(rank_deaths, key=lambda d: (d.at, d.proc))
        )
        self.link_faults: tuple[LinkFault, ...] = tuple(link_faults)
        seen: set[int] = set()
        for d in self.rank_deaths:
            if d.proc in seen:
                raise FaultError(f"rank {d.proc} dies twice in the plan")
            seen.add(d.proc)

    def __bool__(self) -> bool:
        return bool(self.task_faults or self.rank_deaths or self.link_faults)

    @property
    def has_rank_deaths(self) -> bool:
        return bool(self.rank_deaths)

    def task_budget(self) -> dict[TaskId, int]:
        """Fresh per-run consumable copy of the transient-fault budget."""
        return dict(self.task_faults)

    def link_table(self) -> LinkFaultTable | None:
        """The cluster-side link-fault table (``None`` when no link faults)."""
        return LinkFaultTable(self.link_faults) if self.link_faults else None

    def validate(self, n_procs: int) -> None:
        """Reject plans that cannot possibly be survived.

        Raises:
            FaultError: a death targets a proc outside the cluster, or
                the deaths leave no survivor.
        """
        for d in self.rank_deaths:
            if d.proc >= n_procs:
                raise FaultError(
                    f"RankDeath targets proc {d.proc} but the cluster has "
                    f"{n_procs} procs"
                )
        if len(self.rank_deaths) >= n_procs:
            raise FaultError(
                f"plan kills all {n_procs} procs — no survivor to recover on"
            )

    @classmethod
    def random(
        cls,
        seed: int,
        task_ids: Iterable[TaskId],
        n_procs: int,
        *,
        task_fault_rate: float = 0.1,
        max_faults_per_task: int = 2,
        n_rank_deaths: int = 0,
        death_window: tuple[float, float] = (0.0, 0.0),
        link_fault_rate: float = 0.0,
        link_window: tuple[float, float] = (0.0, math.inf),
        link_drop: bool = False,
        link_bandwidth_factor: float = 0.25,
    ) -> "FaultPlan":
        """Seeded-random plan over a known task-id set and cluster size.

        Purely a function of its arguments — ``random.Random(seed)``
        drives every draw, so the same call always builds the same plan.
        Rank 0 is never killed (some runtime models root their top-level
        task there), and at least one rank always survives.
        """
        rng = random.Random(seed)
        faults = [
            TaskFault(tid, rng.randint(1, max_faults_per_task))
            for tid in sorted(task_ids)
            if rng.random() < task_fault_rate
        ]
        deaths = []
        if n_rank_deaths > 0 and n_procs > 2:
            lo, hi = death_window
            candidates = list(range(1, n_procs))
            rng.shuffle(candidates)
            for proc in candidates[: min(n_rank_deaths, n_procs - 2)]:
                deaths.append(RankDeath(proc, lo + rng.random() * (hi - lo)))
        links = []
        if link_fault_rate > 0.0:
            for src in range(n_procs):
                for dst in range(n_procs):
                    if src != dst and rng.random() < link_fault_rate:
                        links.append(
                            LinkFault(
                                src,
                                dst,
                                start=link_window[0],
                                end=link_window[1],
                                bandwidth_factor=link_bandwidth_factor,
                                drop=link_drop,
                            )
                        )
        return cls(task_faults=faults, rank_deaths=deaths, link_faults=links)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultPlan(task_faults={len(self.task_faults)}, "
            f"rank_deaths={len(self.rank_deaths)}, "
            f"link_faults={len(self.link_faults)})"
        )
