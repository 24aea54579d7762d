"""Exception hierarchy for the BabelFlow reproduction.

Every error raised by the library derives from :class:`BabelFlowError` so
host applications can catch library failures with a single handler.
"""

from __future__ import annotations

import difflib


class BabelFlowError(Exception):
    """Base class of all library errors."""


class GraphError(BabelFlowError):
    """A task graph is malformed (bad parameters, unknown task id,
    inconsistent edges, cycles, ...)."""


class TaskMapError(BabelFlowError):
    """A task map does not form a valid partition of the task ids, or a
    shard/task id is out of range."""


class CallbackError(BabelFlowError):
    """A callback id is unknown, unregistered, or a callback produced an
    output that does not match the task's outgoing channels."""


class ControllerError(BabelFlowError):
    """A runtime controller was misused (run before initialize, missing
    initial inputs, ...) or failed during execution."""


class SerializationError(BabelFlowError):
    """A payload could not be serialized or deserialized."""


class SimulationError(BabelFlowError):
    """The discrete-event substrate was misused or reached an inconsistent
    state (e.g., deadlock: no runnable events but tasks remain)."""


class FaultError(BabelFlowError):
    """A fault plan is invalid (e.g. it kills every rank) or a run became
    unrecoverable (a task exhausted its retry budget, a message could not
    be delivered within the retransmission budget)."""


def did_you_mean(name: object, candidates) -> str:
    """``" (did you mean 'x'?)"`` for the candidate closest to ``name``,
    or ``""`` — the suffix every unknown-name error appends."""
    close = difflib.get_close_matches(str(name), sorted(candidates), n=1)
    return f" (did you mean {close[0]!r}?)" if close else ""
