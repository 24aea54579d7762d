"""The runtime-controller base class.

Section IV: *"All runtime controllers share the same interface by deriving
from the same base class to make switching between controllers easy."*
The interface mirrors the paper's Listing 1 workflow::

    c = SomeController(...)
    c.initialize(graph, task_map)
    c.register_callback(graph.callbacks()[0], leaf_fn)
    ...
    result = c.run(initial_inputs)

``initial_inputs`` maps each source task id to the payload(s) of its
EXTERNAL input slots; ``run`` returns a
:class:`~repro.runtimes.result.RunResult` with every payload the graph
returned to the caller plus timing statistics.
"""

from __future__ import annotations

import functools
import inspect
from abc import ABC, abstractmethod
from typing import Mapping, Sequence

from repro.core.callbacks import CallbackRegistry, TaskCallback
from repro.core.errors import ControllerError
from repro.core.graph import TaskGraph
from repro.core.ids import CallbackId, TaskId
from repro.core.payload import Payload
from repro.core.tables import GraphTables
from repro.core.taskmap import TaskMap
from repro.obs.events import EventSink
from repro.runtimes.result import RunResult

#: Accepted forms for one task's initial input: a single payload (for the
#: common one-external-slot case) or one payload per EXTERNAL slot.
InitialInput = Payload | Sequence[Payload]


class Controller(ABC):
    """Common initialize / register / run protocol of every backend."""

    #: Whether the last ``run()`` found its compiled plan in
    #: :data:`~repro.sched.compile.PLAN_CACHE`; ``None`` when it never
    #: consulted the cache (no ``compile=True``, a fallback, or a
    #: backend without compiled plans).
    plan_cache_hit: bool | None = None

    def __init__(
        self, sinks: Sequence[EventSink] = (), telemetry: bool | None = None
    ) -> None:
        """``sinks`` and ``telemetry`` are every backend's observation
        arguments: the sinks hear each run's events (and its abort), and
        ``telemetry=True`` adds the latency sketches to its metrics."""
        if telemetry is not None and not isinstance(telemetry, bool):
            raise TypeError(
                f"telemetry must be None or a bool, got "
                f"{type(telemetry).__name__}"
            )
        self._graph: TaskGraph | None = None
        self._task_map: TaskMap | None = None
        self._registry: CallbackRegistry | None = None
        self._sinks: list[EventSink] = list(sinks)
        self.telemetry = bool(telemetry)

    # ------------------------------------------------------------------ #
    # Setup
    # ------------------------------------------------------------------ #

    @classmethod
    @functools.cache
    def supported_kwargs(cls) -> "frozenset[str] | None":
        """Constructor kwarg names this backend accepts, or ``None``.

        Memoized per class: a constructor's signature never changes, and
        every ``repro.run`` and service build asks.

        Walks the MRO to the first ``__init__`` with a fully explicit
        signature (subclasses that take ``*args, **kwargs`` and forward
        — e.g. the Charm++ controller — inherit their base's roster).
        ``None`` means the roster cannot be determined statically, and
        callers (:func:`~repro.runtimes.registry.make_controller`)
        skip validation and let the constructor speak for itself.
        """
        for klass in cls.__mro__:
            init = klass.__dict__.get("__init__")
            if init is None:
                continue
            try:
                params = list(inspect.signature(init).parameters.values())
            except (TypeError, ValueError):  # C-level / unsupported init
                return None
            if any(p.kind is p.VAR_KEYWORD for p in params):
                continue  # forwards **kwargs: the real roster is below
            return frozenset(
                p.name
                for p in params[1:]  # drop self
                if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
            )
        return None

    def add_sink(self, sink: EventSink) -> None:
        """Attach an observability sink to subsequent runs.

        Sinks receive the structured lifecycle events of every
        :meth:`run` (see :mod:`repro.obs.events`).  The controller never
        closes attached sinks — their owner does, after the last run.
        """
        self._sinks.append(sink)

    def initialize(
        self, graph: TaskGraph, task_map: TaskMap | None = None
    ) -> None:
        """Bind the controller to a task graph (and optional task map).

        Whether a task map is required depends on the backend: the MPI and
        Legion SPMD controllers need one, Charm++ and Legion index-launch
        controllers place tasks themselves.
        """
        self._graph = graph
        self._task_map = task_map
        self._registry = CallbackRegistry(graph.callbacks())
        self._post_initialize()

    def _post_initialize(self) -> None:
        """Backend hook invoked at the end of :meth:`initialize`."""

    def register_callback(self, cid: CallbackId, fn: TaskCallback) -> None:
        """Bind the implementation of one task type.

        Raises:
            ControllerError: before :meth:`initialize`.
        """
        if self._registry is None:
            raise ControllerError("register_callback before initialize")
        self._registry.register(cid, fn)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def run(self, initial_inputs: Mapping[TaskId, InitialInput]) -> RunResult:
        """Execute the dataflow.

        Args:
            initial_inputs: payloads for every EXTERNAL input slot, keyed
                by task id.  Tasks with one external slot may map directly
                to a payload; tasks with several map to a sequence, in
                slot order.

        Returns:
            The run result with returned payloads and timing statistics.

        Raises:
            ControllerError: if the controller is not initialized, a
                callback is missing, or inputs do not match the graph.
        """
        graph, registry = self._require_ready()
        # The graph's lowered tables are built by the first run of this
        # instance and read by every later one: input validation and the
        # backend both work off them, so tasks materialize once per
        # graph, not once per run (procedural graphs rebuild per call).
        graph = graph.cached()
        normalized = self._normalize_inputs(graph.tables(), initial_inputs)
        return self._execute(graph, registry, normalized)

    @abstractmethod
    def _execute(
        self,
        graph: TaskGraph,
        registry: CallbackRegistry,
        inputs: dict[TaskId, list[Payload]],
    ) -> RunResult:
        """Backend-specific execution of the validated run."""

    # ------------------------------------------------------------------ #
    # Shared validation
    # ------------------------------------------------------------------ #

    def _require_ready(self) -> tuple[TaskGraph, CallbackRegistry]:
        if self._graph is None or self._registry is None:
            raise ControllerError("run() before initialize()")
        missing = self._registry.missing(self._graph.callbacks())
        if missing:
            raise ControllerError(
                f"callbacks not registered for ids {missing}"
            )
        return self._graph, self._registry

    @staticmethod
    def _normalize_inputs(
        tables: GraphTables, initial_inputs: Mapping[TaskId, InitialInput]
    ) -> dict[TaskId, list[Payload]]:
        """Validate and normalize to one payload list per source task,
        in the tables' (ascending) source order."""
        out: dict[TaskId, list[Payload]] = {}
        ext_start = tables.ext_start
        for j, tid in enumerate(tables.sources):
            n_ext = ext_start[j + 1] - ext_start[j]
            if tid not in initial_inputs:
                raise ControllerError(
                    f"task {tid} expects {n_ext} external input(s) "
                    f"but none were provided"
                )
            value = initial_inputs[tid]
            if type(value) is Payload and n_ext == 1:
                out[tid] = [value]  # the common case, without the checks
                continue
            payloads: list[Payload]
            if isinstance(value, Payload):
                payloads = [value]
            else:
                payloads = list(value)
                for p in payloads:
                    if not isinstance(p, Payload):
                        raise ControllerError(
                            f"initial input for task {tid} contains a "
                            f"{type(p).__name__}, expected Payload"
                        )
            if len(payloads) != n_ext:
                raise ControllerError(
                    f"task {tid} expects {n_ext} external input(s), "
                    f"got {len(payloads)}"
                )
            out[tid] = payloads
        if len(out) != len(initial_inputs):
            raise ControllerError(
                f"initial inputs provided for tasks without external "
                f"slots: {sorted(set(initial_inputs) - out.keys())[:5]}"
            )
        return out
