"""Callback registry: linking task types to implementations.

The paper's task implementations all share one generic signature::

    int task(vector<Payload>& inputs, vector<Payload>& outputs, TaskId id);

The Python equivalent used throughout this reproduction is::

    def task(inputs: list[Payload], task_id: TaskId) -> list[Payload]

where the returned list has exactly one payload per *output channel* of the
task (``Task.outgoing``).  Controllers validate the arity so a mismatch is
caught at the offending task instead of surfacing as a hang downstream.
"""

from __future__ import annotations

from typing import Callable, Iterable, Protocol

from repro.core.errors import CallbackError
from repro.core.ids import CallbackId, TaskId
from repro.core.payload import Payload

#: The callback signature: inputs and the task id in, one payload per
#: output channel out.
TaskCallback = Callable[[list[Payload], TaskId], list[Payload]]


class SupportsCallbacks(Protocol):
    """Anything that advertises its supported callback ids (task graphs)."""

    def callbacks(self) -> list[CallbackId]: ...


def validate_outputs(
    cid: CallbackId,
    outputs: list[Payload] | None,
    task_id: TaskId,
    n_outputs: int,
) -> list[Payload]:
    """Check a callback's return value against the task's output arity.

    Shared by :meth:`CallbackRegistry.invoke` and the local pool backend's
    worker-side execution (where no registry object exists — the callback
    travels to the worker alone), so both report identical errors.

    Raises:
        CallbackError: when the callback returned anything other than a
            list of ``n_outputs`` payloads.
    """
    if type(outputs) is list and len(outputs) == n_outputs:
        for out in outputs:
            if type(out) is not Payload:
                break
        else:
            return outputs  # the common case, without a call per item
    if outputs is None and n_outputs == 0:
        return []
    if not isinstance(outputs, list) or len(outputs) != n_outputs:
        got = (
            "None"
            if outputs is None
            else f"{type(outputs).__name__} of length "
            f"{len(outputs) if hasattr(outputs, '__len__') else '?'}"
        )
        raise CallbackError(
            f"task {task_id} (callback {cid}) must return a list of "
            f"{n_outputs} payloads, got {got}"
        )
    for i, out in enumerate(outputs):
        if not isinstance(out, Payload):
            raise CallbackError(
                f"task {task_id} (callback {cid}) output channel {i} is "
                f"a {type(out).__name__}, expected Payload"
            )
    return outputs


class CallbackRegistry:
    """Maps callback ids to implementations.

    Controllers own one registry each (populated through
    ``Controller.register_callback``), so the same graph can run with
    different implementations side by side — e.g. a volume-render leaf in
    one controller and a statistics leaf in another, as Section III
    describes.
    """

    def __init__(self, valid_ids: Iterable[CallbackId] | None = None) -> None:
        self._valid: set[CallbackId] | None = (
            set(valid_ids) if valid_ids is not None else None
        )
        self._callbacks: dict[CallbackId, TaskCallback] = {}

    def register(self, cid: CallbackId, fn: TaskCallback) -> None:
        """Bind ``fn`` to callback id ``cid``.

        Re-registering an id replaces the previous binding (useful when
        reassembling an algorithm with different leaf implementations).

        Raises:
            CallbackError: if the graph declared its callback ids and
                ``cid`` is not among them.
        """
        if self._valid is not None and cid not in self._valid:
            raise CallbackError(
                f"callback id {cid} is not declared by the task graph "
                f"(declared: {sorted(self._valid)})"
            )
        if not callable(fn):
            raise CallbackError(f"callback for id {cid} is not callable")
        self._callbacks[cid] = fn

    def resolve(self, cid: CallbackId) -> TaskCallback:
        """Return the implementation bound to ``cid``.

        Raises:
            CallbackError: if nothing is registered for ``cid``.
        """
        try:
            return self._callbacks[cid]
        except KeyError:
            raise CallbackError(
                f"no callback registered for id {cid}; "
                f"registered ids: {sorted(self._callbacks)}"
            ) from None

    def missing(self, required: Iterable[CallbackId]) -> list[CallbackId]:
        """Callback ids from ``required`` that have no implementation yet."""
        return sorted(set(required) - set(self._callbacks))

    def invoke(
        self,
        cid: CallbackId,
        inputs: list[Payload],
        task_id: TaskId,
        n_outputs: int,
    ) -> list[Payload]:
        """Run callback ``cid`` and validate its output arity.

        Raises:
            CallbackError: when the callback returns anything other than a
                list of ``n_outputs`` payloads.
        """
        fn = self.resolve(cid)
        return validate_outputs(cid, fn(inputs, task_id), task_id, n_outputs)
