"""The simulated cluster: procs, cores, and the network.

A :class:`Cluster` instantiates ``n_procs`` simulated processes (MPI ranks,
Charm++ PEs, Legion shards — the controllers decide what a proc *means*)
on a :class:`~repro.sim.machine.MachineSpec`.  Each proc owns:

* a compute resource with ``cores_per_proc`` servers (the MPI controller's
  thread pool executes tasks here), and
* a transmit (NIC) resource that serializes its outgoing messages.

Message timing follows the standard postal model: the sender's NIC is
occupied for ``nbytes / bandwidth`` and the payload arrives ``latency``
seconds after injection completes.  Intra-node transfers use the faster
shared-memory path and skip the NIC queue contention of other nodes.

Observability flows exclusively through the event stream: controllers
attach their sinks to ``obs``.  ``compute`` and ``send`` are on the
simulator's hottest path, so they build labels and event objects only
when a sink is attached.
"""

from __future__ import annotations

from functools import partial
from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable

from repro.core.errors import FaultError, SimulationError
from repro.obs.events import (
    FAULT_INJECTED,
    MESSAGE_DELIVERED,
    MESSAGE_SENT,
    OVERHEAD,
    Event,
)
from repro.obs.hub import NULL_HUB, ObsHub
from repro.sim.engine import Engine
from repro.sim.machine import MachineSpec
from repro.sim.resource import MultiResource, Resource

if TYPE_CHECKING:
    from repro.faults.plan import LinkFaultTable
    from repro.faults.policy import RetryPolicy


def _edge_label(src_task: int, dst_task: int, dst_proc: int) -> str:
    """Default message label; only built when a sink observes the run."""
    if src_task >= 0 and dst_task >= 0:
        return f"t{src_task}->t{dst_task}"
    return f"->{dst_proc}"


class Cluster:
    """``n_procs`` simulated processes on a machine model.

    Args:
        engine: the event engine driving the simulation.
        machine: hardware parameters.
        n_procs: number of simulated processes.
        cores_per_proc: compute servers per proc (1 = a proc is one core).
        obs: observability hub receiving ``message_sent`` /
            ``message_delivered`` events for every transfer.
    """

    __slots__ = (
        "engine", "machine", "n_procs", "cores_per_proc", "obs",
        "procs_per_node", "_cores", "_nics", "_core_speed", "_observed",
        "_single_core", "bytes_sent", "messages_sent",
        "_link_faults", "_retry", "messages_dropped",
        "messages_retransmitted", "first_drop_time", "_latency_sketch",
        "blocked_time",
    )

    def __init__(
        self,
        engine: Engine,
        machine: MachineSpec,
        n_procs: int,
        cores_per_proc: int = 1,
        procs_per_node: int | None = None,
        obs: ObsHub = NULL_HUB,
        link_faults: "LinkFaultTable | None" = None,
        retry: "RetryPolicy | None" = None,
        latency_sketch=None,
    ) -> None:
        if n_procs <= 0:
            raise SimulationError(f"n_procs must be positive, got {n_procs}")
        if cores_per_proc <= 0:
            raise SimulationError(
                f"cores_per_proc must be positive, got {cores_per_proc}"
            )
        self.engine = engine
        self.machine = machine
        self.n_procs = n_procs
        self.cores_per_proc = cores_per_proc
        self.obs = obs
        if procs_per_node is None:
            procs_per_node = max(1, machine.cores_per_node // cores_per_proc)
        elif procs_per_node <= 0:
            raise SimulationError(
                f"procs_per_node must be positive, got {procs_per_node}"
            )
        self.procs_per_node = procs_per_node
        # A single-server MultiResource behaves exactly like Resource but
        # pays heap bookkeeping per submit; use the scalar server when a
        # proc is one core (the common case).
        if cores_per_proc == 1:
            self._cores: list[Resource | MultiResource] = [
                Resource(engine) for _ in range(n_procs)
            ]
        else:
            self._cores = [
                MultiResource(engine, cores_per_proc) for _ in range(n_procs)
            ]
        self._nics = [Resource(engine) for _ in range(n_procs)]
        # Hot-path constants hoisted out of compute()/send().  The hub's
        # sink tuple is frozen at construction, so its truthiness is too.
        self._core_speed = machine.core_speed
        self._observed = bool(obs)
        self._single_core = cores_per_proc == 1
        self.bytes_sent = 0
        self.messages_sent = 0
        #: wire seconds (injection + latency) cores spent blocked in
        #: :meth:`send_blocking`.
        self.blocked_time = 0.0
        # Fault layer: None on the clean path, so the per-send guard is
        # a single identity test (zero-cost when no plan is installed).
        self._link_faults = link_faults
        self._retry = retry
        self.messages_dropped = 0
        self.messages_retransmitted = 0
        self.first_drop_time: float | None = None
        # Telemetry: a QuantileSketch observing send-to-delivery latency
        # per message.  None on the clean path (zero-cost when off) —
        # the controller installs it only when telemetry is enabled.
        self._latency_sketch = latency_sketch

    # ------------------------------------------------------------------ #
    # Topology
    # ------------------------------------------------------------------ #

    def node_of(self, proc: int) -> int:
        """Node hosting ``proc`` (procs are packed onto nodes in order)."""
        self._check_proc(proc)
        return proc // self.procs_per_node

    def same_node(self, a: int, b: int) -> bool:
        """True when two procs share a node (fast intra-node path)."""
        return self.node_of(a) == self.node_of(b)

    @property
    def n_nodes(self) -> int:
        """Number of nodes occupied by the cluster."""
        return self.node_of(self.n_procs - 1) + 1

    # ------------------------------------------------------------------ #
    # Compute
    # ------------------------------------------------------------------ #

    def compute(
        self,
        proc: int,
        duration: float,
        fn: Callable[..., Any] | None = None,
        *args: Any,
    ) -> tuple[float, float]:
        """Run work of ``duration`` virtual seconds on ``proc``'s cores.

        The duration is divided by the machine's ``core_speed``.  Returns
        ``(start, end)``; ``fn(*args)`` fires at ``end`` if given.
        """
        if not 0 <= proc < self.n_procs:
            raise SimulationError(
                f"proc {proc} out of range [0, {self.n_procs})"
            )
        dur = duration / self._core_speed
        if not self._single_core:
            return self._cores[proc].submit(dur, fn, *args)
        # Single-server fast path: the FIFO bookkeeping is three field
        # updates, and the completion event goes straight onto the heap
        # (end >= now always, so the past-check in call_at cannot fire).
        if dur < 0:
            raise SimulationError(f"negative duration {dur}")
        core = self._cores[proc]
        engine = self.engine
        start = engine._now
        if core._free_at > start:
            start = core._free_at
        end = start + dur
        core._free_at = end
        core.busy_time += dur
        if fn is not None:
            heappush(engine._heap, (end, engine._next_seq(), fn, args))
        return start, end

    def core_busy_time(self, proc: int) -> float:
        """Total virtual compute seconds served by ``proc`` so far."""
        self._check_proc(proc)
        return self._cores[proc].busy_time

    # ------------------------------------------------------------------ #
    # Network
    # ------------------------------------------------------------------ #

    def message_time(self, src: int, dst: int, nbytes: int) -> tuple[float, float]:
        """Return ``(injection_duration, latency)`` for a message."""
        m = self.machine
        if src == dst:
            return 0.0, 0.0
        if self.same_node(src, dst):
            return nbytes / m.intra_bandwidth, m.intra_latency
        return nbytes / m.inter_bandwidth, m.inter_latency

    def send(
        self,
        src: int,
        dst: int,
        nbytes: int,
        fn: Callable[..., Any],
        *args: Any,
        label: str = "",
        src_task: int = -1,
        dst_task: int = -1,
        _attempt: int = 1,
    ) -> float:
        """Transmit ``nbytes`` from ``src`` to ``dst``; ``fn(*args)`` fires
        on delivery.

        Same-proc sends deliver immediately on the next event (zero cost:
        the controllers model any serialization/copy cost explicitly as
        compute).  Returns the delivery time.  ``src_task``/``dst_task``
        annotate the emitted ``message_sent``/``message_delivered``
        events so trace consumers can follow the dataflow edge; when no
        explicit ``label`` is given, one is derived from them lazily —
        only if a sink is attached.

        The ``src_task``/``dst_task`` pair is the message's *causal id*:
        together with ``task_started.parents`` (span context, see
        :mod:`repro.obs.spans`) it makes an exported trace a causal DAG
        (task -> message -> task).  The pair is preserved across
        link-fault retransmissions, so retransmitted payloads stay
        attributed to their original producer.

        When a link-fault table is installed (see :mod:`repro.faults`),
        active faults scale the injection/latency; a *drop* loses the
        message and schedules a sender-side retransmission after the
        retry policy's backoff (``_attempt`` tracks the retransmission
        count — a dropped message that exhausts the budget raises
        :class:`~repro.core.errors.FaultError`).
        """
        n = self.n_procs
        if not 0 <= src < n or not 0 <= dst < n:
            bad = src if not 0 <= src < n else dst
            raise SimulationError(f"proc {bad} out of range [0, {n})")
        if nbytes < 0:
            raise SimulationError(f"negative message size {nbytes}")
        self.messages_sent += 1
        self.bytes_sent += nbytes
        engine = self.engine
        if src == dst:
            # In-memory delivery is due immediately: append to the
            # engine's sorted due-FIFO instead of a heap round trip.
            t = engine._now
            engine._due.append((t, engine._next_seq(), fn, args))
            if self._latency_sketch is not None:
                self._latency_sketch.observe(0.0)
            if self._observed:
                self._emit_message(
                    src, dst, nbytes, t, t, label, src_task, dst_task
                )
            return t
        m = self.machine
        if src // self.procs_per_node == dst // self.procs_per_node:
            inject = nbytes / m.intra_bandwidth
            latency = m.intra_latency
        else:
            inject = nbytes / m.inter_bandwidth
            latency = m.inter_latency
        if self._link_faults is not None:
            inject, latency, dropped = self._link_faults.apply(
                src, dst, engine._now, inject, latency
            )
            if dropped:
                return self._drop(
                    src, dst, nbytes, label, src_task, dst_task, _attempt,
                    partial(
                        self.send, src, dst, nbytes, fn, *args, label=label,
                        src_task=src_task, dst_task=dst_task,
                    ),
                )
        # Inlined NIC bookkeeping (see compute); inject >= 0 because
        # nbytes was validated above, so deliver >= now always.
        nic = self._nics[src]
        start = engine._now
        if nic._free_at > start:
            start = nic._free_at
        inj_end = start + inject
        nic._free_at = inj_end
        nic.busy_time += inject
        deliver = inj_end + latency
        heappush(engine._heap, (deliver, engine._next_seq(), fn, args))
        if self._latency_sketch is not None:
            self._latency_sketch.observe(deliver - start)
        if self._observed:
            self._emit_message(
                src, dst, nbytes, start, deliver, label, src_task, dst_task
            )
        return deliver

    def send_blocking(
        self,
        src: int,
        dst: int,
        nbytes: int,
        ser: float,
        category: str,
        fn: Callable[..., Any],
        *args: Any,
        src_task: int = -1,
        dst_task: int = -1,
        _attempt: int = 1,
    ) -> None:
        """:meth:`send` without a NIC: a blocking send.

        ``src``'s core is occupied for ``ser`` seconds of serialization
        (an ``overhead`` event of ``category``) plus the whole transfer,
        and ``fn(*args)`` fires when the core is released — at once, in
        the caller's frame, when there is nothing to occupy it for.  The
        counters, the latency sketch, link faults and retransmission are
        :meth:`send`'s; faults are looked up when the send is issued.  A
        dropped message was already serialized: its core still pays
        ``ser``, and the retransmission blocks for the transfer alone.
        """
        self.messages_sent += 1
        self.bytes_sent += nbytes
        inject, latency = self.message_time(src, dst, nbytes)
        dropped = False
        if src != dst and self._link_faults is not None:
            inject, latency, dropped = self._link_faults.apply(
                src, dst, self.engine._now, inject, latency
            )
        if dropped:
            inject = latency = 0.0
        else:
            self.blocked_time += inject + latency
        wait = ser + inject + latency
        if wait > 0.0:
            if dropped:
                start, end = self.compute(src, wait)
            else:
                start, end = self.compute(src, wait, fn, *args)
            sent = min(start + ser / self._core_speed, end)
            if ser > 0.0 and self._observed:
                self.obs.emit(
                    Event(
                        OVERHEAD, sent, src, src_task, -1, dst_task,
                        sent - start, category, 0,
                        "ser " + _edge_label(src_task, dst_task, dst),
                    )
                )
        else:
            sent = end = self.engine._now
        if dropped:
            self._drop(
                src, dst, nbytes, "", src_task, dst_task, _attempt,
                partial(
                    self.send_blocking, src, dst, nbytes, 0.0, category, fn,
                    *args, src_task=src_task, dst_task=dst_task,
                ),
            )
            return
        if self._latency_sketch is not None:
            self._latency_sketch.observe(end - sent)
        if self._observed:
            self._emit_message(src, dst, nbytes, sent, end, "", src_task, dst_task)
        if wait == 0.0:
            fn(*args)

    def _emit_message(
        self,
        src: int,
        dst: int,
        nbytes: int,
        start: float,
        deliver: float,
        label: str,
        src_task: int,
        dst_task: int,
    ) -> None:
        label = label or _edge_label(src_task, dst_task, dst)
        emit = self.obs.emit
        # Positional, in field order (type, t, proc, task, dst_proc,
        # dst_task, dur, category, nbytes, label): twice per message.
        emit(
            Event(
                MESSAGE_SENT, start, src, src_task, dst, dst_task,
                0.0, "", nbytes, label,
            )
        )
        emit(
            Event(
                MESSAGE_DELIVERED, deliver, src, src_task, dst, dst_task,
                deliver - start, "", nbytes, label,
            )
        )

    # ------------------------------------------------------------------ #
    # Link-fault recovery (sender-side retransmission)
    # ------------------------------------------------------------------ #

    def _drop(
        self,
        src: int,
        dst: int,
        nbytes: int,
        label: str,
        src_task: int,
        dst_task: int,
        attempt: int,
        resend: Callable[..., Any],
    ) -> float:
        """A link fault lost the message; schedule a retransmission.

        The sender keeps the payload buffered until delivery (standard
        reliable-transport semantics), so recovery is a deterministic
        ``resend(_attempt=attempt + 1)`` after the policy's backoff — no
        upstream replay needed.
        """
        now = self.engine._now
        self.messages_dropped += 1
        if self.first_drop_time is None:
            self.first_drop_time = now
        if self._observed:
            self.obs.emit(
                Event(
                    FAULT_INJECTED,
                    now,
                    proc=src,
                    dst_proc=dst,
                    task=src_task,
                    dst_task=dst_task,
                    nbytes=nbytes,
                    category="link",
                    label=label or _edge_label(src_task, dst_task, dst),
                )
            )
        policy = self._retry
        if policy is None or not policy.allows_attempt(attempt):
            raise FaultError(
                f"message {src}->{dst} ({nbytes} bytes) dropped and "
                f"retransmission budget exhausted after {attempt} attempt(s)"
            )
        key = dst_task if dst_task >= 0 else dst
        self.engine.call_after(
            policy.delay(key, attempt), self._resend, resend, attempt + 1
        )
        return now

    def _resend(self, resend: Callable[..., Any], attempt: int) -> None:
        self.messages_retransmitted += 1
        resend(_attempt=attempt)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _check_proc(self, proc: int) -> None:
        if not 0 <= proc < self.n_procs:
            raise SimulationError(
                f"proc {proc} out of range [0, {self.n_procs})"
            )
