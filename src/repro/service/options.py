"""Typed run options: the facade's ``**kwargs`` soup, consolidated.

:func:`repro.run` historically forwarded every knob as an opaque kwarg
to the controller constructor; a typo surfaced as a bare ``TypeError``
deep inside a backend's ``__init__``.  :class:`RunOptions` is the typed
replacement: one frozen dataclass naming every supported option, with
the same ``coerce`` normalization pattern as
:class:`~repro.obs.live.LiveConfig` and a did-you-mean rejection of
unknown names (mirroring :func:`repro.runtimes.resolve_runtime`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.core.errors import ControllerError, did_you_mean

__all__ = ["RunOptions"]


def _value_token(value) -> tuple:
    """A hashable dedup token for an arbitrary option value.

    Value-hashable options key by value (two tenants asking for
    ``compile=True`` coalesce); everything else keys by identity, which
    is always safe for *in-flight* deduplication — both requests hold a
    reference, so the id cannot be recycled while either waits.
    """
    try:
        hash(value)
    except TypeError:
        return ("id", id(value))
    return ("val", value)


@dataclass(frozen=True)
class RunOptions:
    """Every optional knob a :func:`repro.run` / ``submit()`` call takes.

    All fields default to ``None`` ("not given"): the controller's own
    default applies, exactly as the historical kwarg soup behaved.  The
    field names are the controller-constructor kwargs (see
    :func:`repro.runtimes.make_controller`); which backend honors which
    option is unchanged.

    Attributes:
        task_map: explicit placement (including planned maps) for the
            backends that take one; passed to ``initialize``, not the
            constructor.
        cost_model: virtual compute-cost model (simulated backends).
        machine: hardware model (simulated backends).
        costs: per-runtime overhead constants (simulated backends).
        cores_per_proc: simulated cores per proc.
        procs_per_node: simulated procs per node.
        fault_plan: fault schedule (see :mod:`repro.faults`).
        retry_policy: retry/backoff policy for failed attempts.
        balancer: dynamic load-balancing strategy.
        telemetry: ``True`` turns on the latency sketches
            (:mod:`repro.obs.telemetry`).
        live: in-flight status snapshots (a directory, or the other
            :class:`~repro.obs.live.LiveConfig` shapes; ``True`` needs
            ``$REPRO_LIVE_DIR``).
        compile: lower static runs into cached ahead-of-time plans.
        mode: local backend pool flavor (``process``/``thread``/``inline``).
        idle_timeout: local backend idle watchdog.
    """

    task_map: object = None
    cost_model: object = None
    machine: object = None
    costs: object = None
    cores_per_proc: int | None = None
    procs_per_node: int | None = None
    fault_plan: object = None
    retry_policy: object = None
    balancer: object = None
    telemetry: object = None
    live: object = None
    compile: bool | None = None
    mode: str | None = None
    idle_timeout: float | None = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def names(cls) -> tuple[str, ...]:
        """The supported option names, in declaration order."""
        return tuple(f.name for f in fields(cls))

    @classmethod
    def coerce(cls, value) -> "RunOptions":
        """Normalize an ``options=`` argument.

        ``None`` -> defaults, a :class:`RunOptions` passes through, a
        dict becomes validated kwargs (unknown names rejected with a
        did-you-mean suggestion via :meth:`from_kwargs`).
        """
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, dict):
            return cls.from_kwargs(**value)
        raise TypeError(
            f"options must be None, dict, or RunOptions, "
            f"got {type(value).__name__}"
        )

    @classmethod
    def from_kwargs(cls, **kwargs) -> "RunOptions":
        """Build options from loose kwargs, validating every name.

        Unknown names raise :class:`~repro.core.errors.ControllerError`
        with a did-you-mean suggestion — the typed replacement for the
        bare ``TypeError`` controller constructors used to throw.
        """
        kwargs = {k: v for k, v in kwargs.items() if v is not None}
        known = cls.names()
        unknown = sorted(set(kwargs) - set(known))
        if unknown:
            detail = ", ".join(
                f"{name!r}{did_you_mean(name, known)}" for name in unknown
            )
            raise ControllerError(
                f"unknown run option(s) {detail}; supported options: "
                f"{', '.join(cls.names())}"
            )
        return cls(**kwargs)

    # ------------------------------------------------------------------ #
    # Consumption
    # ------------------------------------------------------------------ #

    def to_kwargs(self) -> dict:
        """The non-``None`` constructor kwargs (``task_map`` excluded —
        it goes to ``initialize``, exactly as the facade always did)."""
        out = {}
        for f in fields(self):
            if f.name == "task_map":
                continue
            v = getattr(self, f.name)
            if v is not None:
                out[f.name] = v
        return out

    def fingerprint(self) -> tuple:
        """Structural dedup token of the options.

        ``task_map`` keys by its value fingerprint (two plans placing
        tasks identically coalesce); machine/cost specs key by their
        parameter tuples; everything else keys by value when hashable,
        identity otherwise (see :func:`_value_token`).
        """
        parts = []
        for f in fields(self):
            v = getattr(self, f.name)
            if v is None:
                continue
            if f.name == "task_map":
                from repro.sched.compile import taskmap_fingerprint

                try:
                    parts.append((f.name, taskmap_fingerprint(v)))
                except Exception:
                    parts.append((f.name, _value_token(v)))
                continue
            parts.append((f.name, _value_token(v)))
        return tuple(parts)
