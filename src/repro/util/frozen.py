"""Read-only mappings: what a finished run's result is made of.

A run's result is a value (the paper's §III: tasks are idempotent and a
payload is an immutable message), so every mapping it holds — returned
payloads, per-category seconds, metric families — is a
:class:`FrozenDict`.  It *is* a ``dict``: reads, iteration, ``==``,
``json.dumps`` and ``dict(x)`` behave exactly as on a plain one, so the
serialized forms do not change.  Every write raises ``TypeError``;
``x.copy()`` and ``dict(x)`` hand back a plain, writable dict.
"""

from __future__ import annotations


class FrozenDict(dict):
    """A ``dict`` that refuses every write once built."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError(
            f"{type(self).__name__} is read-only; copy it first "
            f"(dict(x) or x.copy())"
        )

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        # pickle and copy would rebuild through __setitem__.
        return type(self), (dict(self),)


def freeze(obj):
    """``obj`` with every nested dict a :class:`FrozenDict` and every
    nested list a tuple."""
    if isinstance(obj, dict):
        return FrozenDict((k, freeze(v)) for k, v in obj.items())
    if isinstance(obj, list):
        return tuple(map(freeze, obj))
    return obj


def thaw(obj):
    """``obj`` with every nested dict a plain ``dict`` again."""
    if isinstance(obj, dict):
        return {k: thaw(v) for k, v in obj.items()}
    return obj
