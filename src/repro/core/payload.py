"""Payloads: the unit of data exchanged between tasks.

The paper defines a ``Payload`` as "either a pointer to an in-memory object
or a binary buffer".  This module mirrors that: a :class:`Payload` wraps an
arbitrary Python object and can be flattened to bytes on demand.  The MPI
controller's *in-memory message* optimization (skip serialization for
intra-rank transfers) is modeled by controllers charging serialization cost
only for inter-rank edges; the object reference itself is always passed
directly since every simulated rank lives in one process.

Wire-size estimation matters because the network model charges
``latency + nbytes / bandwidth`` per message.  :func:`estimate_nbytes`
avoids pickling large numpy arrays just to learn their size.
"""

from __future__ import annotations

import pickle
from typing import Any

import numpy as np

from repro.core.errors import SerializationError


# Concrete scalar types estimated at 8 bytes each: a sequence containing
# only these costs exactly 8 + 16*len (8-byte value + 8-byte per-element
# overhead) without visiting the elements.  np.bool_ is deliberately
# absent — it is not a numbers type and resolves through its ``nbytes``
# attribute instead.
_SCALAR_TYPES = frozenset(
    {int, float, bool, np.float64, np.float32, np.int64, np.int32}
)


def estimate_nbytes(obj: Any) -> int:
    """Best-effort wire size of ``obj`` in bytes.

    numpy arrays report their buffer size; bytes-likes their length;
    containers add a small per-element overhead to their contents;
    everything else falls back to the pickled length.  The estimate only
    feeds the network *cost model*, so being within a small factor is
    enough.

    Hot path: payloads are overwhelmingly flat numeric sequences, which
    are sized in O(len) type checks with no per-element dispatch.
    Nested containers are walked iteratively (the decomposition is
    additive, so traversal order does not change the total), which also
    keeps deeply nested structures from hitting the recursion limit.
    """
    total = 0
    stack = [obj]
    pop = stack.pop
    while stack:
        o = pop()
        if o is None:
            continue
        if type(o) in _SCALAR_TYPES:
            total += 8
            continue
        if isinstance(o, np.ndarray):
            total += int(o.nbytes)
        elif isinstance(o, (bytes, bytearray, memoryview)):
            total += len(o)
        elif isinstance(o, (int, float, bool, np.integer, np.floating)):
            total += 8
        elif isinstance(o, str):
            total += len(o.encode("utf-8", errors="replace"))
        elif isinstance(o, (list, tuple, set, frozenset)):
            # 8 + sum(estimate(x) + 8): the container header and the
            # per-element overhead are charged now, elements later.
            total += 8 + 8 * len(o)
            scalars = _SCALAR_TYPES
            if all(type(x) in scalars for x in o):
                total += 8 * len(o)  # homogeneous numeric fast path
            else:
                stack.extend(o)
                if len(stack) > 10_000_000:
                    # A legal (acyclic) structure never outgrows its own
                    # element count; a cycle grows without bound.
                    raise RecursionError(
                        "payload structure too large or cyclic"
                    )
        elif isinstance(o, dict):
            total += 8 + 16 * len(o)
            stack.extend(o.keys())
            stack.extend(o.values())
            if len(stack) > 10_000_000:
                raise RecursionError("payload structure too large or cyclic")
        else:
            nbytes_attr = getattr(o, "nbytes", None)
            if isinstance(nbytes_attr, (int, np.integer)):
                total += int(nbytes_attr)
            else:
                try:
                    total += len(
                        pickle.dumps(o, protocol=pickle.HIGHEST_PROTOCOL)
                    )
                except Exception:
                    total += 64  # opaque object: charge a nominal header
    return total


class Payload:
    """A message exchanged along a dataflow edge.

    Args:
        data: the wrapped object.  ``None`` is legal and represents an
            empty message (used e.g. for pure-signal edges).
        nbytes: explicit wire size; when omitted it is estimated at
            construction time.

    Payloads compare equal when their ``data`` compare equal (numpy arrays
    are compared element-wise), which the cross-controller regression tests
    rely on.
    """

    __slots__ = ("data", "nbytes")

    def __init__(self, data: Any = None, nbytes: int | None = None) -> None:
        self.data = data
        if nbytes is None:
            # A scalar is what estimate_nbytes sizes first, sized here
            # without the call.
            nbytes = 8 if type(data) in _SCALAR_TYPES else estimate_nbytes(data)
        elif nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        # Plain attributes, not properties: every simulated message reads
        # both on the hot path.
        self.nbytes = nbytes

    def serialize(self) -> bytes:
        """Flatten to a binary buffer (pickle)."""
        try:
            return pickle.dumps(self.data, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise SerializationError(
                f"cannot serialize payload of type {type(self.data).__name__}"
            ) from exc

    @classmethod
    def deserialize(cls, buf: bytes) -> "Payload":
        """Reconstruct a payload from :meth:`serialize` output."""
        try:
            return cls(pickle.loads(buf), nbytes=len(buf))
        except Exception as exc:
            raise SerializationError("cannot deserialize payload") from exc

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Payload):
            return NotImplemented
        a, b = self.data, other.data
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            return (
                isinstance(a, np.ndarray)
                and isinstance(b, np.ndarray)
                and a.shape == b.shape
                and a.dtype == b.dtype
                and bool(np.array_equal(a, b))
            )
        try:
            return bool(a == b)
        except Exception:
            # Containers holding arrays raise on truth-value evaluation;
            # fall back to comparing serialized forms.
            try:
                return self.serialize() == other.serialize()
            except Exception:
                return False

    def __hash__(self) -> int:  # payloads are mutable containers
        raise TypeError("Payload is unhashable")

    def __repr__(self) -> str:
        return f"Payload({type(self.data).__name__}, ~{self.nbytes} B)"
