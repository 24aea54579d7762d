"""Shared sweep machinery for the rendering and compositing figures (10a-f).

Fig. 10a strong-scales the rendering stage alone (:func:`rendering_sweep`,
one block per core over a fixed volume).  The compositing figures are
weak scaling as in the paper: one rendered image per core, so the number
of images to composite grows with the core count.  The *compositing-only*
sweeps zero the render cost so makespans isolate the compositing stage
(Figs. 10e/f); the *full* sweeps keep it (Figs. 10b/c).

Results are cached per (mode, render, sizes) so the binary-swap figures can
compare against the reduction numbers without re-running them.

The figures' shape claims are stated once here, beside the sweeps
(:func:`assert_fig10a_shape`, :func:`assert_fig10bc_shape`,
:func:`assert_fig10e_shape`, :func:`assert_fig10f_shape`): the figure
benchmarks and the tier-1 suite (``tests/test_paper_claims.py``) both
check them.
"""

from __future__ import annotations

from functools import lru_cache

from benchmarks.harness import bench_field, observe, sweep_sizes
from repro.analysis.rendering import (
    RenderingCostParams,
    RenderingWorkload,
    icet_composite_time,
)
from repro.core.payload import Payload
from repro.graphs import DataParallel
from repro.runtimes import CharmController, LegionSPMDController, MPIController
from repro.runtimes.costs import CallableCost
from repro.sim.machine import SHAHEEN_II

SIZES = sweep_sizes(small=[64, 256, 1024], full=[128, 512, 2048, 8192])
#: Fig. 10a's core counts (strong scaling of the rendering stage).
RENDER_SIZES = sweep_sizes(small=[128, 512, 2048], full=[128, 512, 2048, 8192])

#: Simulated output image and volume (the paper's setup).
SIM_IMAGE = (2048, 2048)
SIM_VOLUME = (1024, 1024, 1024)

RUNTIMES = [
    ("MPI", MPIController),
    ("Charm++", CharmController),
    ("Legion", LegionSPMDController),
]
GENERIC = [name for name, _ in RUNTIMES]

_FIELD = bench_field()


def make_workload(n: int, mode: str, render: bool) -> RenderingWorkload:
    """Build the workload for ``n`` images; ``render=False`` zeroes the
    render cost so only compositing shapes the makespan."""
    params = RenderingCostParams() if render else RenderingCostParams(
        render_per_sample=0.0
    )
    return RenderingWorkload(
        _FIELD, n, image_shape=(24, 24), mode=mode, valence=2,
        sim_image_shape=SIM_IMAGE, sim_shape=SIM_VOLUME, cost_params=params,
    )


def render_point(cores: int):
    """Fig. 10a: render one block per core on MPI, no compositing.

    Each leaf really ray-marches its block; the virtual cost is the
    calibrated render model.
    """
    wl = RenderingWorkload(
        _FIELD, cores, image_shape=(24, 24), mode="reduction", valence=2,
        sim_image_shape=SIM_IMAGE, sim_shape=SIM_VOLUME,
    )
    g = DataParallel(cores)
    cost = CallableCost(lambda task, ins: wl.render_cost(task.id))
    c = observe(MPIController(cores, cost_model=cost))
    c.initialize(g)
    c.register_callback(
        g.WORK,
        lambda ins, tid: [wl._fragment_payload(wl._render(ins[0].data, tid))],
    )
    inputs = {
        b: Payload(wl.decomp.extract_block(_FIELD, b)) for b in range(cores)
    }
    return c.run(inputs)


@lru_cache(maxsize=None)
def rendering_sweep(
    sizes: tuple[int, ...] = tuple(RENDER_SIZES),
) -> dict[str, dict[int, float]]:
    """Fig. 10a's single series: render-stage makespan per core count."""
    return {"VTK volume rendering": {n: render_point(n).makespan for n in sizes}}


@lru_cache(maxsize=None)
def compositing_sweep(
    mode: str, render: bool, sizes: tuple[int, ...] = tuple(SIZES)
) -> dict[str, dict[int, float]]:
    """Run every runtime over the size sweep; returns series name -> data.

    Includes the IceT baseline: the compositing model alone when
    ``render=False``, plus the (identical) rendering stage estimate when
    ``render=True``.
    """
    out: dict[str, dict[int, float]] = {"IceT": {}}
    for name, _ in RUNTIMES:
        out[name] = {}
    for n in sizes:
        wl = make_workload(n, mode, render)
        for name, ctor in RUNTIMES:
            c = ctor(n, cost_model=wl.cost_model())
            out[name][n] = wl.run(c).makespan
        icet = icet_composite_time(n, SIM_IMAGE[0] * SIM_IMAGE[1], SHAHEEN_II)
        if render:
            icet += max(wl.render_cost(b) for b in range(n))
        out["IceT"][n] = icet
    return out


def assert_fig10a_shape(sizes, sweep) -> None:
    """The paper's Fig. 10a claims (rendering stage, strong scaling);
    ``sizes`` must include the 128-core point."""
    t = sweep["VTK volume rendering"]
    # Strong scaling: near-ideal until block footprints stop dividing the
    # image evenly.
    for a, b in zip(sizes, sizes[1:]):
        assert t[b] < t[a], (a, b)
    ideal = t[sizes[0]] * sizes[0] / sizes[-1]
    assert t[sizes[-1]] < 4 * ideal
    # Magnitude sanity: the 128-core point sits in the paper's ~100 s
    # regime (calibrated, not fitted to the figure).
    assert 20 < t[128] < 500


def assert_fig10bc_shape(sizes, reduction_sweep, binswap_sweep) -> None:
    """The paper's Figs. 10b/c claims (rendering + compositing totals)."""
    for sweep in (reduction_sweep, binswap_sweep):
        # Totals decrease with cores (rendering strong-scales) ...
        for name in GENERIC + ["IceT"]:
            assert sweep[name][sizes[-1]] < sweep[name][sizes[0]], name
        # ... and the runtimes practically coincide: rendering dominates,
        # with IceT ahead by no more than the serialization margin.
        for n in sizes:
            vals = [sweep[name][n] for name in GENERIC]
            assert max(vals) < 1.25 * min(vals), n
            assert sweep["IceT"][n] < 1.25 * min(vals), n
    # Binary swap's parallel compositing still shows in the totals.
    for n in sizes:
        assert binswap_sweep["MPI"][n] < reduction_sweep["MPI"][n], n


def assert_fig10e_shape(sizes, sweep) -> None:
    """The paper's Fig. 10e claims (reduction compositing only)."""
    low, high = sizes[0], sizes[-1]
    # IceT undercuts every generic backend at every size.
    for n in sizes:
        for name in GENERIC:
            assert sweep["IceT"][n] < sweep[name][n], (name, n)
    # Weak scaling: compositing time grows with the image count...
    for name in GENERIC:
        assert sweep[name][high] > sweep[name][low], name
    # ...with MPI showing the lowest relative increase.
    growth = {name: sweep[name][high] / sweep[name][low] for name in GENERIC}
    assert growth["MPI"] <= min(growth.values()) * 1.01


def assert_fig10f_shape(sizes, sweep, reduction_sweep) -> None:
    """The paper's Fig. 10f claims (binary swap vs Fig. 10e's reduction)."""
    high = sizes[-1]
    # IceT stays fastest.
    for n in sizes:
        for name in GENERIC:
            assert sweep["IceT"][n] < sweep[name][n], (name, n)
    # MPI and Charm++ gain from binary swap at scale...
    assert sweep["MPI"][high] < reduction_sweep["MPI"][high]
    assert sweep["Charm++"][high] < reduction_sweep["Charm++"][high]
    # ...while Legion loses more to per-task overhead than it gains:
    # its binswap/reduction ratio is the worst of the three runtimes.
    ratio = {
        name: sweep[name][high] / reduction_sweep[name][high] for name in GENERIC
    }
    assert ratio["Legion"] > ratio["MPI"]
    assert ratio["Legion"] > ratio["Charm++"]
