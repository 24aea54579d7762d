"""The runtime registry: controllers addressable by name.

The paper's portability claim — one task graph, any runtime — deserves a
front door that treats the runtime as *data*: :data:`REGISTRY` maps a
stable string name to each controller class, :func:`resolve_runtime`
looks names up with a helpful error, and :func:`make_controller` builds a
ready-to-initialize controller from a name plus the usual constructor
kwargs (the :func:`repro.run` facade and the analysis workloads'
``run()`` methods accept either form).

The serial controller executes callbacks on a wall-clock timeline with
no simulated cluster, so :func:`make_controller` silently drops the
timing-fidelity knobs (``cost_model``, ``machine``, ``costs``, ...) for
it but refuses semantics-bearing ones (``fault_plan``, ``balancer``):
a quick ``runtime="serial"`` sanity run of a simulated configuration
works, while a config that *needs* the simulator fails loudly.  The
local (real-core) backend gets the same treatment for the simulated
clusters' fidelity knobs: ``n_procs`` becomes the worker-pool size and
the cluster-timing knobs are dropped, so one configuration dict ports
between simulated and real execution.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.errors import ControllerError, did_you_mean
from repro.runtimes.blocking import BlockingMPIController
from repro.runtimes.charm import CharmController
from repro.runtimes.controller import Controller
from repro.runtimes.legion import LegionIndexController, LegionSPMDController
from repro.runtimes.local import LocalPoolController
from repro.runtimes.mpi import MPIController
from repro.runtimes.serial import SerialController

#: Stable runtime names, as documented in the paper's controller roster
#: (six simulated-or-serial engines plus the real-core ``"local"`` pool).
REGISTRY: Mapping[str, type[Controller]] = {
    "serial": SerialController,
    "mpi": MPIController,
    "blocking-mpi": BlockingMPIController,
    "charm": CharmController,
    "legion-spmd": LegionSPMDController,
    "legion-index": LegionIndexController,
    "local": LocalPoolController,
}

#: Constructor kwargs the serial controller has no meaning for and
#: silently ignores (it has no virtual clock or cluster model).
_SERIAL_IGNORED = frozenset(
    {
        "n_procs",
        "machine",
        "cores_per_proc",
        "cost_model",
        "costs",
        "procs_per_node",
    }
)

#: Simulated-cluster fidelity knobs the local (real-core) backend
#: silently drops: real cores keep their own time, so a simulated
#: configuration runs on the pool with its timing model ignored.
_LOCAL_IGNORED = _SERIAL_IGNORED - {"n_procs"}


def resolve_runtime(runtime: str | type[Controller]) -> type[Controller]:
    """Resolve a registry name (or pass a controller class through).

    Raises:
        ControllerError: for an unknown name, listing the valid ones.
    """
    if isinstance(runtime, type) and issubclass(runtime, Controller):
        return runtime
    cls = REGISTRY.get(runtime)  # type: ignore[arg-type]
    if cls is None:
        raise ControllerError(
            f"unknown runtime {runtime!r}; valid names: "
            f"{', '.join(sorted(REGISTRY))}{did_you_mean(runtime, REGISTRY)}"
        )
    return cls


def _runtime_name(runtime) -> str:
    return runtime if isinstance(runtime, str) else runtime.__name__


def _check_kwargs(cls: type[Controller], kwargs: dict, runtime) -> None:
    """Reject kwargs the backend's constructor does not take.

    The error lists the backend's full supported roster and suggests
    the closest valid name — a typo'd ``cost_modell`` fails with "did
    you mean 'cost_model'?" instead of a bare ``TypeError`` from deep
    inside the constructor.  Backends whose roster cannot be determined
    (``supported_kwargs() is None``) skip validation.
    """
    supported = cls.supported_kwargs()
    if supported is None:
        return
    unknown = sorted(set(kwargs) - supported)
    if not unknown:
        return
    parts = [f"{k!r}{did_you_mean(k, supported)}" for k in unknown]
    raise ControllerError(
        f"runtime {_runtime_name(runtime)!r} does not support "
        f"{', '.join(parts)}; supported kwargs: "
        f"{', '.join(sorted(supported))}"
    )


def make_controller(
    runtime: str | type[Controller],
    n_procs: int | None = None,
    **kwargs,
) -> Controller:
    """Construct a controller from a registry name and constructor kwargs.

    Args:
        runtime: a :data:`REGISTRY` name or a controller class.
        n_procs: simulated cluster size; required by every simulated
            backend, meaningless (and ignored) for ``"serial"``, and the
            worker-pool size for ``"local"`` (optional — the pool picks
            a sensible default).
        **kwargs: forwarded to the controller constructor (``cost_model``,
            ``machine``, ``fault_plan``, ``balancer``, ``sinks``, ...).
            ``None``-valued kwargs are treated as "not given".

    Raises:
        ControllerError: unknown runtime name; missing ``n_procs`` for a
            simulated backend; a kwarg the backend's constructor does
            not take (listing the backend's supported kwargs, with a
            did-you-mean hint); or a semantics-bearing kwarg
            (``fault_plan``, ``retry_policy``, ``balancer``) passed to
            the serial controller, which cannot honor it.
    """
    cls = resolve_runtime(runtime)
    kwargs = {k: v for k, v in kwargs.items() if v is not None}
    if cls is SerialController:
        supported = sorted(cls.supported_kwargs())
        unsupported = sorted(set(kwargs) - _SERIAL_IGNORED - set(supported))
        if unsupported:
            raise ControllerError(
                f"the serial runtime does not support {unsupported} "
                f"(it has no simulated cluster); pick a simulated "
                f"runtime such as 'mpi', or use only its supported "
                f"kwargs: {', '.join(supported)}"
            )
        for k in _SERIAL_IGNORED:
            kwargs.pop(k, None)
        return SerialController(**kwargs)
    if cls is LocalPoolController:
        for k in _LOCAL_IGNORED:
            kwargs.pop(k, None)
        kwargs.pop("n_procs", None)
        if n_procs is not None:
            kwargs.setdefault("n_workers", n_procs)
        _check_kwargs(cls, kwargs, runtime)
        return LocalPoolController(**kwargs)
    kwargs.pop("n_procs", None)
    if n_procs is None:
        raise ControllerError(
            f"runtime {_runtime_name(runtime)!r} needs n_procs "
            f"(the simulated cluster size)"
        )
    _check_kwargs(cls, kwargs, runtime)
    return cls(n_procs, **kwargs)


def coerce_controller(
    controller: str | Controller,
    n_procs: int | None = None,
    **kwargs,
) -> Controller:
    """Accept either a ready controller instance or a registry name.

    The analysis workloads' ``run()`` methods use this so
    ``wl.run("mpi", n_procs=8)`` works alongside the long-form
    ``wl.run(MPIController(8))``.

    Raises:
        ControllerError: constructor kwargs passed alongside an already
            constructed controller (they could not take effect), or any
            :func:`make_controller` failure.
    """
    if isinstance(controller, str):
        return make_controller(controller, n_procs=n_procs, **kwargs)
    extras = sorted(k for k, v in kwargs.items() if v is not None)
    if n_procs is not None or extras:
        given = (["n_procs"] if n_procs is not None else []) + extras
        raise ControllerError(
            f"constructor kwargs {given} were passed with an already "
            f"constructed {type(controller).__name__}; pass a registry "
            f"name (e.g. 'mpi') to have them applied"
        )
    return controller
