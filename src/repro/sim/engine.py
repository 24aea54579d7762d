"""Discrete-event engine.

A minimal, deterministic event loop: events are ``(time, sequence)``
ordered, so two events at the same virtual time fire in scheduling order,
making every simulation replayable bit-for-bit.  All runtime controllers
(:mod:`repro.runtimes`) execute on top of this engine; *virtual* seconds
advance only through event timestamps, never through wall-clock time.

Hot path: the heap stores plain ``(time, seq, fn, args)`` tuples, so
ordering is resolved by C tuple comparison (``seq`` is unique, so the
comparison never reaches ``fn``) and a schedule allocates no handle
object.  :meth:`Engine.call_at` / :meth:`Engine.call_after` are the two
ways to schedule, and :meth:`Engine.run` is the one loop that drains
them.

Events scheduled *at the current time* (same-rank message delivery is
the big producer) skip the heap: :meth:`Engine.call_at` reroutes them to
a FIFO of already-due entries instead of a ``heappush``/``heappop``
round trip.  An entry appended at ``now`` with a fresh ``seq`` is by
construction ``>=`` every entry already in the FIFO and ``<`` nothing it
could be reordered against, so the FIFO stays sorted for free and the
``(time, seq)`` total order is preserved.

:meth:`Engine.replay` feeds a presorted static schedule through a plain
cursor, merging against any dynamically scheduled events by
``(time, seq)``.  Nothing in the runtimes calls it; it is kept for the
perf ledger's replay-throughput probe.
"""

from __future__ import annotations

import itertools
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Sequence

from repro.core.errors import SimulationError


class Engine:
    """Deterministic discrete-event loop.

    Typical use::

        eng = Engine()
        eng.call_after(1.0, print, "one virtual second later")
        eng.run()
        assert eng.now == 1.0
    """

    __slots__ = ("_heap", "_due", "_now", "_seq", "_next_seq", "_running")

    def __init__(self) -> None:
        # Entries: (time, seq, fn, args).
        self._heap: list[tuple] = []
        # Already-due FIFO: entries appended at the then-current time.
        # Invariant: sorted by (time, seq) — times are non-decreasing
        # (now never goes backwards) and seqs are strictly increasing.
        self._due: deque[tuple] = deque()
        self._now = 0.0
        self._seq = itertools.count()
        self._next_seq = self._seq.__next__
        self._running = False

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #

    def call_at(self, time: float, fn: Callable[..., Any], *args: Any) -> float:
        """Schedule ``fn(*args)`` at absolute virtual ``time``.

        Returns the effective fire time (clamped to ``now``).  An event
        due now skips the heap: it orders after everything already due
        and before nothing it could displace, so it lands in a plain
        FIFO.

        Raises:
            SimulationError: when scheduling into the past.
        """
        now = self._now
        if time <= now:
            if time < now - 1e-12:
                raise SimulationError(
                    f"cannot schedule event at {time} before now={now}"
                )
            # Already due: skip the heap, append to the sorted FIFO.
            self._due.append((now, self._next_seq(), fn, args))
            return now
        heappush(self._heap, (time, self._next_seq(), fn, args))
        return time

    def call_after(
        self, delay: float, fn: Callable[..., Any], *args: Any
    ) -> float:
        """Schedule ``fn(*args)`` after ``delay`` virtual seconds.

        Raises:
            SimulationError: for negative delays.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.call_at(self._now + delay, fn, *args)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def run(self) -> float:
        """Run events until the queue drains.

        Returns the final virtual time.  Re-entrant calls are rejected —
        event handlers must schedule, not recurse into ``run``.
        """
        if self._running:
            raise SimulationError("Engine.run is not re-entrant")
        self._running = True
        heap = self._heap
        due = self._due
        try:
            # Hot loop: pop-and-fire with no peeking.  The due FIFO
            # (usually empty or the head) merges by tuple compare.
            while True:
                if due:
                    if heap and heap[0] < due[0]:
                        time, _seq, fn, args = heappop(heap)
                    else:
                        time, _seq, fn, args = due.popleft()
                elif heap:
                    time, _seq, fn, args = heappop(heap)
                else:
                    break
                self._now = time
                fn(*args)
        finally:
            self._running = False
        return self._now

    def replay(self, entries: Sequence[tuple]) -> float:
        """Fire a presorted static schedule without per-event heap ops.

        ``entries`` is a sequence of ``(time, fn, args)`` tuples with
        non-decreasing times, none in the past.  The whole batch
        reserves a contiguous ``seq`` block up front (so its entries
        order exactly as if they had been scheduled one by one before
        anything they spawn) and is then driven by a plain cursor.  Events the entries schedule *dynamically* are
        merged in by ``(time, seq)`` — a dynamic event fires mid-replay
        only when it is due strictly before the next static entry.
        Dynamic events left over when the schedule is exhausted stay
        queued for a subsequent :meth:`run`.

        Returns the virtual time after the last fired entry.

        Raises:
            SimulationError: re-entrant call, unsorted times, or an entry
                scheduled into the past.
        """
        if self._running:
            raise SimulationError("Engine.replay is not re-entrant")
        n = len(entries)
        if n == 0:
            return self._now
        if entries[0][0] < self._now - 1e-12:
            raise SimulationError(
                f"replay entry at {entries[0][0]} before now={self._now}"
            )
        prev = entries[0][0]
        for e in entries:
            if e[0] < prev:
                raise SimulationError(
                    f"replay entries not time-sorted ({e[0]} after {prev})"
                )
            prev = e[0]
        # Reserve the seq block for the whole batch so dynamically
        # scheduled events (seq >= base + n) order after every static
        # entry at the same timestamp — identical to scheduling the
        # batch up front and draining through the heap.
        base = self._next_seq()
        self._seq = itertools.count(base + n)
        self._next_seq = self._seq.__next__
        heap = self._heap
        due = self._due
        self._running = True
        try:
            for i in range(n):
                time, fn, args = entries[i]
                if time < self._now:
                    time = self._now  # clamp within the 1e-12 epsilon
                seq = base + i
                # Drain dynamic events due strictly before this entry.
                while True:
                    if due and (not heap or due[0] < heap[0]):
                        nxt = due[0]
                        if (nxt[0], nxt[1]) > (time, seq):
                            break
                        due.popleft()
                        dfn, dargs = nxt[2], nxt[3]
                    elif heap:
                        nxt = heap[0]
                        if (nxt[0], nxt[1]) > (time, seq):
                            break
                        heappop(heap)
                        dfn, dargs = nxt[2], nxt[3]
                    else:
                        break
                    self._now = nxt[0]
                    dfn(*dargs)
                self._now = time
                fn(*args)
        finally:
            self._running = False
        return self._now
