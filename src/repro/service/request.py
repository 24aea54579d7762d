"""The frozen submission unit: :class:`RunRequest` and its dedup key.

A request is everything one :func:`repro.run` call carries — graph,
callbacks, inputs, runtime, plus a typed :class:`~.options.RunOptions`
— frozen so it can sit in a queue, be retried, or be coalesced with an
identical in-flight submission without aliasing surprises.

:func:`request_key` is the batching rule: two requests coalesce into
one execution exactly when their keys are equal.  The key is built from
the PR-7 structural fingerprints (:func:`~repro.sched.compile.graph_fingerprint`,
:func:`~repro.sched.compile.taskmap_fingerprint`) plus value-or-identity
tokens for callbacks, inputs, and options — so *structurally identical*
submissions from different tenants share one run, while anything the
service cannot prove identical never coalesces.  Requests that carry
per-run side effects (sinks, live monitoring, kept traces) are never
coalescible: a second tenant's sink must not silently observe nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Mapping, Sequence

from repro.core.graph import TaskGraph
from repro.core.payload import Payload
from repro.obs.events import EventSink
from repro.runtimes.controller import Controller
from repro.runtimes.registry import make_controller
from repro.service.options import RunOptions

__all__ = ["HashedKey", "RunRequest", "request_key"]


@dataclass(frozen=True)
class RunRequest:
    """One frozen unit of work for :meth:`RunService.submit`.

    Attributes:
        graph: the dataflow to execute.
        callbacks: one implementation per task type (callback id).
        inputs: payloads for every EXTERNAL input slot, keyed by task id.
        runtime: a :data:`repro.runtimes.REGISTRY` name or controller
            class (same forms as :func:`repro.run`).
        n_procs: simulated cluster size / local pool size.
        tenant: fair-share accounting bucket; quotas and round-robin
            dispatch key on this name.
        options: typed knobs (:class:`RunOptions`; dicts are coerced).
        sinks: per-run observability sinks.  A request with sinks is
            never coalesced with another submission.
        label: free-form annotation surfaced in service snapshots.
    """

    graph: TaskGraph
    callbacks: Mapping
    inputs: Mapping
    runtime: "str | type[Controller]" = "mpi"
    n_procs: int | None = None
    tenant: str = "default"
    options: RunOptions = field(default_factory=RunOptions)
    sinks: Sequence[EventSink] = ()
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "options", RunOptions.coerce(self.options))
        object.__setattr__(self, "sinks", tuple(self.sinks))
        object.__setattr__(self, "callbacks", dict(self.callbacks))
        object.__setattr__(self, "inputs", dict(self.inputs))

    def build(self, graph: TaskGraph | None = None) -> Controller:
        """The paper's Listing 1 for this request: construct the
        controller, ``initialize``, ``register_callback`` per task type.

        ``graph`` substitutes an equivalent (shared, already
        materialized) view of :attr:`graph`; the caller finishes with
        ``.run(request.inputs)``.
        """
        controller = make_controller(
            self.runtime,
            n_procs=self.n_procs,
            sinks=self.sinks,
            **self.options.to_kwargs(),
        )
        controller.initialize(
            graph if graph is not None else self.graph, self.options.task_map
        )
        for cid, fn in self.callbacks.items():
            controller.register_callback(cid, fn)
        return controller

    @property
    def coalescible(self) -> bool:
        """Whether this request may share an execution with an identical
        in-flight one.

        Side-effect-bearing options opt out: per-run sinks (a kept
        trace included) or a live-monitoring plane belong to *their* run
        and must not be silently skipped because a twin got there first.
        """
        return not self.sinks and self.options.live is None


def _runtime_token(runtime) -> tuple:
    if isinstance(runtime, str):
        return ("name", runtime)
    return ("class", f"{runtime.__module__}.{runtime.__qualname__}")


class HashedKey:
    """A key that hashes once.

    The in-flight table probes, inserts and deletes a request's key up
    to four times; hashing what a key holds per input payload is the
    expensive part of each probe.  Equal exactly when the wrapped keys
    are.
    """

    __slots__ = ("key", "hash")

    def __init__(self, key: tuple) -> None:
        self.key = key
        self.hash = hash(key)

    def __hash__(self) -> int:
        return self.hash

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HashedKey)
            and self.hash == other.hash
            and self.key == other.key
        )


def _payload_token(p: Payload) -> tuple:
    data = p.data
    try:
        hash(data)
    except TypeError:
        # Unhashable payload data (arrays, dicts): identity is the only
        # safe equality for in-flight work — both requests hold a
        # reference, so the id is stable while either waits.
        return ("id", id(p))
    return ("val", type(data).__name__, data, p.nbytes)


_data, _nbytes = attrgetter("data"), attrgetter("nbytes")


def _type_names(datas: tuple) -> tuple:
    """``type(d).__name__`` of each of ``datas``, reading each distinct
    type's name once (usually there is one)."""
    types = tuple(map(type, datas))
    kinds = set(types)
    if len(kinds) == 1:
        return (types[0].__name__,) * len(types)
    return tuple(map({k: k.__name__ for k in kinds}.__getitem__, types))


def _inputs_token(inputs: Mapping) -> HashedKey:
    """The inputs' value-or-identity token, hashed once.

    The common shape — one payload per task, all data hashable — is
    three columns (the data, their type names and the payloads'
    ``nbytes``), built and hashed at C level in one pass.  Any other
    shape (a multi-slot list, unhashable data) takes a token per payload
    (:func:`_payload_token`).  Either way two tokens are equal exactly
    when every task's payloads have equal data of the same type name and
    equal ``nbytes``, or are the same unhashable payloads.
    """
    tids = tuple(sorted(inputs))
    values = tuple(map(inputs.__getitem__, tids))
    if all(issubclass(t, Payload) for t in set(map(type, values))):
        datas = tuple(map(_data, values))
        try:
            return HashedKey((
                "cols", tids, datas, _type_names(datas),
                tuple(map(_nbytes, values)),
            ))
        except TypeError:
            pass  # unhashable data somewhere: a token per payload
    parts = []
    for tid, value in zip(tids, values):
        if isinstance(value, Payload):
            parts.append((tid, _payload_token(value)))
        else:
            parts.append((tid, tuple(_payload_token(p) for p in value)))
    return HashedKey(("rows", tuple(parts)))


def _callbacks_token(callbacks: Mapping) -> tuple:
    # Callbacks key by identity: module-level functions shared across
    # tenants coalesce, distinct lambdas (which *could* differ) never do.
    return tuple((cid, id(fn)) for cid, fn in sorted(callbacks.items()))


def request_key(request: RunRequest) -> tuple | None:
    """The batching/dedup key of a request, or ``None``.

    ``None`` means "never coalesce": the request carries per-run side
    effects, or its graph cannot be fingerprinted (non-contiguous id
    spaces fall outside the PR-7 fingerprint contract).
    """
    if not request.coalescible:
        return None
    from repro.sched.compile import graph_fingerprint

    try:
        graph_fp = graph_fingerprint(request.graph)
        options_fp = request.options.fingerprint()
    except Exception:
        return None
    return (
        "run-request",
        graph_fp,
        _runtime_token(request.runtime),
        request.n_procs,
        _callbacks_token(request.callbacks),
        _inputs_token(request.inputs),
        options_fp,
    )
