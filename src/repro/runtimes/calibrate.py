"""Calibrating analytic cost models against the host machine.

The workloads' default cost constants are hand-calibrated to land in the
paper's regimes; for users who want virtual times anchored to *their*
hardware's real per-element speeds, this module measures the actual
kernels (the union-find sweep, the boundary join, the raycaster, the NCC
search) on small inputs and returns fitted cost-parameter objects.

Measurements use best-of-N wall times on synthetic inputs sized large
enough to dominate interpreter overhead but small enough to finish in
milliseconds.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np


def measure_rate(fn: Callable[[], None], units: float, repeats: int = 3) -> float:
    """Best-of-``repeats`` wall seconds of ``fn`` divided by ``units``.

    Raises:
        ValueError: for non-positive ``units`` or ``repeats``.
    """
    if units <= 0:
        raise ValueError(f"units must be positive, got {units}")
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best / units


def profile_cost_model(events):
    """Cost model replaying a measured run's per-task compute seconds.

    ``events`` is a buffered event stream — typically a
    :class:`~repro.obs.ListSink`'s ``events`` from a
    :class:`~repro.runtimes.LocalPoolController` run on real cores — or
    an already-built :class:`~repro.sched.ProfiledEstimate`.  The
    returned :class:`~repro.runtimes.costs.CallableCost` charges each
    task its measured ``task_finished`` duration, so any simulated
    controller replays the real run's compute profile and its virtual
    makespan becomes a prediction of measured wall time.  This closes
    the loop in the other direction from the ``calibrate_*`` kernels:
    instead of fitting analytic constants, the whole trace becomes the
    model (the ``local_calibration`` perf benchmark reports how close
    the prediction lands).
    """
    from repro.runtimes.costs import CallableCost
    from repro.sched.estimate import ProfiledEstimate

    profile = (
        events
        if isinstance(events, ProfiledEstimate)
        else ProfiledEstimate.from_events(events)
    )
    return CallableCost(lambda task, inputs: profile.compute_seconds(task))


def calibrate_merge_tree(block_side: int = 24, seed: int = 0):
    """Measure the merge-tree kernels; returns
    :class:`~repro.analysis.mergetree.MergeTreeCostParams`."""
    from repro.analysis.mergetree import (
        BlockDecomposition,
        MergeTreeCostParams,
        extract_boundary,
        join_components,
        segment_block,
    )

    rng = np.random.default_rng(seed)
    shape = (block_side, block_side, block_side)
    field = rng.random((2 * block_side, block_side, block_side))
    dec = BlockDecomposition(field.shape, (2, 1, 1))
    blocks = [dec.extract_block(field, b) for b in range(2)]
    gids = [dec.gids_array(dec.block_bounds(b)) for b in range(2)]

    v = float(np.prod(shape))
    sweep_rate = measure_rate(
        lambda: segment_block(blocks[0], gids[0], 0.0),
        units=v * np.log2(v),
    )
    labels = [segment_block(blocks[b], gids[b], 0.5) for b in range(2)]
    parts = [
        extract_boundary(dec, b, labels[b], blocks[b]) for b in range(2)
    ]
    nb = max(1, sum(p.n_voxels for p in parts))
    join_rate = measure_rate(
        lambda: join_components(parts, dec, {0, 1}), units=nb
    )
    active = max(1, int((blocks[0] >= 0.5).sum()))
    correction_rate = measure_rate(
        lambda: np.unique(labels[0], return_inverse=True), units=active
    )
    return MergeTreeCostParams(
        touch_per_voxel=sweep_rate * 0.1,
        sweep_per_voxel=sweep_rate,
        join_per_boundary_voxel=join_rate,
        correction_per_voxel=correction_rate,
        segmentation_per_voxel=correction_rate,
    )


def calibrate_rendering(block_side: int = 24, image_side: int = 48, seed: int = 0):
    """Measure the raycaster and compositor; returns
    :class:`~repro.analysis.rendering.RenderingCostParams`."""
    from repro.analysis.rendering import (
        ImageFragment,
        OrthoCamera,
        RenderingCostParams,
        fire,
        over,
        render_volume,
    )

    rng = np.random.default_rng(seed)
    field = rng.random((block_side, block_side, block_side))
    cam = OrthoCamera((image_side, image_side))
    tf = fire(0, 1)
    samples = float(image_side * image_side * block_side)
    render_rate = measure_rate(
        lambda: render_volume(field, cam, tf), units=samples
    )
    a = ImageFragment(
        rng.random((image_side, image_side, 4)).astype(np.float32),
        rng.random((image_side, image_side)).astype(np.float32),
    )
    b = ImageFragment(
        rng.random((image_side, image_side, 4)).astype(np.float32),
        rng.random((image_side, image_side)).astype(np.float32),
    )
    composite_rate = measure_rate(
        lambda: over(a, b), units=float(image_side * image_side)
    )
    return RenderingCostParams(
        render_per_sample=render_rate,
        composite_per_pixel=composite_rate,
        write_per_pixel=composite_rate * 0.5,
    )


def calibrate_registration(window=(8, 24, 24), max_shift: int = 3, seed: int = 0):
    """Measure the NCC search; returns
    :class:`~repro.analysis.registration.RegistrationCostParams`."""
    from repro.analysis.registration import (
        RegistrationCostParams,
        ncc_shift,
    )

    rng = np.random.default_rng(seed)
    a = rng.random(window)
    b = rng.random(window)
    voxels = float(np.prod(window))
    # The search is one zero-padded FFT cross-correlation plus prefix
    # sums, so voxel * log2(voxel) is its complexity and the unit of the
    # workload's analytic model.
    rate = measure_rate(
        lambda: ncc_shift(a, b, max_shift), units=voxels * np.log2(voxels)
    )
    copy_rate = measure_rate(
        lambda: np.ascontiguousarray(a), units=voxels, repeats=5
    )
    return RegistrationCostParams(
        extract_per_voxel=copy_rate,
        fft_per_voxel=rate,
    )
