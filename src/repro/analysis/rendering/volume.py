"""From-scratch volume raycaster (the paper's VTK rendering stage).

Orthographic rays along a grid axis, front-to-back emission-absorption
accumulation with a :class:`~repro.analysis.rendering.transfer.
TransferFunction`, nearest-neighbor sampling on the pixel grid.  Each
block renders only its own sub-volume; block contributions along a ray
are disjoint depth segments, so compositing fragments with *over* equals
rendering the full ray — the associativity the compositing dataflows rely
on, and which the tests verify against a single full-volume render.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.analysis.rendering.image import ImageFragment
from repro.analysis.rendering.transfer import TransferFunction

_AXES = {"x": 0, "y": 1, "z": 2}


@dataclass(frozen=True)
class OrthoCamera:
    """Orthographic camera looking along a grid axis.

    Args:
        image_shape: output image (H, W) in pixels.
        axis: view axis, ``"x"``, ``"y"`` or ``"z"``; rays travel toward
            increasing coordinates along it.  The other two axes map to
            image rows and columns in ascending order.
    """

    image_shape: tuple[int, int]
    axis: str = "z"

    def __post_init__(self) -> None:
        if self.axis not in _AXES:
            raise ValueError(f"axis must be x, y or z, got {self.axis!r}")
        h, w = self.image_shape
        if h <= 0 or w <= 0:
            raise ValueError(f"invalid image shape {self.image_shape}")
        # Hashable whatever sequence the caller passed: cameras key caches.
        object.__setattr__(self, "image_shape", (h, w))

    @property
    def view_axis(self) -> int:
        """The numeric view axis (0, 1 or 2)."""
        return _AXES[self.axis]

    def plane_axes(self) -> tuple[int, int]:
        """Grid axes mapped to image (rows, cols)."""
        others = [a for a in range(3) if a != self.view_axis]
        return others[0], others[1]

    def pixel_maps(
        self, grid_shape: tuple[int, int, int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Nearest-neighbor maps from image rows/cols to grid indices."""
        ra, ca = self.plane_axes()
        h, w = self.image_shape
        rows = np.minimum(
            (np.arange(h) * grid_shape[ra]) // h, grid_shape[ra] - 1
        ).astype(np.int64)
        cols = np.minimum(
            (np.arange(w) * grid_shape[ca]) // w, grid_shape[ca] - 1
        ).astype(np.int64)
        return rows, cols


def render_block(
    block: np.ndarray,
    bounds: tuple[tuple[int, int], ...],
    grid_shape: tuple[int, int, int],
    camera: OrthoCamera,
    tf: TransferFunction,
    step_scale: float = 1.0,
) -> ImageFragment:
    """Ray-march one block into a dense full-resolution fragment.

    Args:
        block: the block's scalar data.
        bounds: the block's per-axis global ``[lo, hi)`` bounds.
        grid_shape: the global grid shape.
        camera: view setup.
        tf: transfer function (alpha interpreted per unit step).
        step_scale: sample step in voxels along the ray (1.0 = every
            voxel slice).

    Returns:
        A fragment of the camera's full image size: the block's footprint
        carries its accumulated color, everything else is transparent
        with depth +inf; covered pixels get depth = the block's entry
        coordinate along the view axis (block depth segments along an
        axis-aligned ray never interleave, so a scalar entry depth per
        block is exact for ordering).
    """
    va = camera.view_axis
    ra, ca = camera.plane_axes()
    fragment = ImageFragment.blank(camera.image_shape)
    footprint = _footprint(
        camera, tuple(grid_shape), tuple(bounds[ra]), tuple(bounds[ca])
    )
    if footprint is None:
        return fragment
    pixels, voxels = footprint

    # A view of the block indexed [row_axis, col_axis, view_axis].
    sub = block.transpose(ra, ca, va)
    depth_extent = sub.shape[2]
    n_steps = max(1, int(round(depth_extent / step_scale)))
    sample_z = np.minimum(
        (np.arange(n_steps) * depth_extent) // n_steps, depth_extent - 1
    )
    # One gather and one transfer-function pass over every sample; only
    # the front-to-back accumulation is sequential in z.
    samples = tf(sub[voxels + (sample_z,)])  # (hb, wb, n_steps, 4)
    opacity = np.clip(samples[..., 3] * step_scale, 0.0, 1.0)
    rgba_block = np.zeros(samples.shape[:2] + (4,), dtype=np.float32)
    color, alpha = rgba_block[..., :3], rgba_block[..., 3]
    for z in range(n_steps):
        weight = (1.0 - alpha) * opacity[:, :, z]
        color += weight[..., None] * samples[:, :, z, :3]
        alpha += weight

    entry = float(bounds[va][0])
    fragment.rgba[pixels] = rgba_block
    fragment.depth[pixels] = np.where(
        alpha > 0.0, np.float32(entry), np.float32(np.inf)
    )
    return fragment


@lru_cache(maxsize=256)
def _footprint(camera, grid_shape, row_bounds, col_bounds):
    """Index arrays of a block's image footprint, or ``None`` if empty.

    ``(pixels, voxels)``: ``np.ix_`` pairs selecting the image rows/cols
    whose grid point falls inside the block, and the same points relative
    to the block (shaped to broadcast against a z index as well).  They
    depend only on the camera, the grid shape and the block's row/column
    bounds, so every block of a depth column (and every thread on
    ``local``) shares one read-only entry.
    """
    rows, cols = camera.pixel_maps(grid_shape)
    (rlo, rhi), (clo, chi) = row_bounds, col_bounds
    row_sel = np.nonzero((rows >= rlo) & (rows < rhi))[0]
    col_sel = np.nonzero((cols >= clo) & (cols < chi))[0]
    if len(row_sel) == 0 or len(col_sel) == 0:
        return None
    pixels = np.ix_(row_sel, col_sel)
    voxels = np.ix_(rows[row_sel] - rlo, cols[col_sel] - clo, [0])[:2]
    for arr in pixels + voxels:
        arr.flags.writeable = False
    return pixels, voxels


def render_volume(
    field: np.ndarray,
    camera: OrthoCamera,
    tf: TransferFunction,
    step_scale: float = 1.0,
) -> ImageFragment:
    """Render a whole field in one pass (reference for the tests)."""
    bounds = tuple((0, s) for s in field.shape)
    return render_block(field, bounds, field.shape, camera, tf, step_scale)
