"""Synthetic overlapping volume grids (the microscopy stand-in).

The paper registers 25 laser-scan volumes of a primate brain arranged on
a 5x5 grid with 15% overlap.  That data is unobtainable, so this module
fabricates the equivalent: one smooth global "specimen" field is sampled
into per-volume stacks whose *true* positions deviate from their nominal
grid positions by a small unknown jitter — exactly the quantity the
registration dataflow must recover.  Unlike the paper we therefore have
ground truth, and the tests assert the recovered offsets match it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class VolumeGridSpec:
    """Parameters of a synthetic volume grid.

    Attributes:
        gx: volumes along X.
        gy: volumes along Y.
        vol_shape: per-volume voxel shape ``(vx, vy, vz)``.
        overlap: nominal overlap fraction between adjacent volumes
            (paper: 0.15).
        max_jitter: maximum |true - nominal| position error per axis, in
            voxels.
        seed: RNG seed.
        smoothness: gaussian sigma of the specimen structure in voxels.
        noise: additive per-volume acquisition noise (std, relative to
            unit signal).
    """

    gx: int = 5
    gy: int = 5
    vol_shape: tuple[int, int, int] = (32, 32, 32)
    overlap: float = 0.15
    max_jitter: int = 2
    seed: int = 0
    smoothness: float = 3.0
    noise: float = 0.01

    def __post_init__(self) -> None:
        if self.gx < 1 or self.gy < 1 or self.gx * self.gy < 2:
            raise ValueError("grid must contain at least two volumes")
        if not 0.0 < self.overlap < 0.5:
            raise ValueError("overlap fraction must be in (0, 0.5)")
        if self.max_jitter < 0:
            raise ValueError("max_jitter must be non-negative")
        vx, vy, _ = self.vol_shape
        if self.overlap_x <= 2 * self.max_jitter or self.overlap_y <= 2 * self.max_jitter:
            raise ValueError(
                "overlap region too small for the configured jitter"
            )

    @property
    def overlap_x(self) -> int:
        """Nominal overlap in voxels along X."""
        return max(1, int(round(self.vol_shape[0] * self.overlap)))

    @property
    def overlap_y(self) -> int:
        """Nominal overlap in voxels along Y."""
        return max(1, int(round(self.vol_shape[1] * self.overlap)))

    @property
    def pitch(self) -> tuple[int, int]:
        """Nominal grid pitch (voxels between neighbor volume origins)."""
        return (
            self.vol_shape[0] - self.overlap_x,
            self.vol_shape[1] - self.overlap_y,
        )

    def nominal_position(self, cx: int, cy: int) -> tuple[int, int, int]:
        """Nominal origin of grid cell ``(cx, cy)`` in specimen space."""
        px, py = self.pitch
        m = self.max_jitter
        return (m + cx * px, m + cy * py, 0)


class SyntheticVolumeGrid:
    """A fabricated acquisition: volumes + their (hidden) true positions.

    Attributes:
        spec: the generation parameters.
        true_offsets: int array (gx*gy, 3); the per-volume jitter
            ``true - nominal`` the registration must recover (cell 0 is
            pinned to zero so the solution is unique).
        volumes: list of float64 arrays of ``spec.vol_shape``.
    """

    def __init__(self, spec: VolumeGridSpec) -> None:
        # Imported here: scipy costs ~0.3 s and ~20 MiB, which importing
        # the registration package alone should not pay.
        from scipy import ndimage

        self.spec = spec
        rng = np.random.default_rng(spec.seed)
        gx, gy = spec.gx, spec.gy
        vx, vy, vz = spec.vol_shape
        px, py = spec.pitch
        m = spec.max_jitter
        specimen_shape = (
            2 * m + (gx - 1) * px + vx,
            2 * m + (gy - 1) * py + vy,
            vz,
        )
        # Smooth structured specimen: filtered noise, unit-ish contrast.
        raw = rng.standard_normal(specimen_shape)
        self.specimen = ndimage.gaussian_filter(raw, spec.smoothness)
        s = self.specimen
        self.specimen = (s - s.mean()) / (s.std() + 1e-12)

        n = gx * gy
        jitter = rng.integers(-m, m + 1, size=(n, 3))
        jitter[:, 2] = 0  # stacks share the z origin; jitter is in-plane
        jitter[0] = 0  # anchor volume
        self.true_offsets = jitter.astype(np.int64)
        self.volumes: list[np.ndarray] = []
        for cell in range(n):
            cx, cy = cell % gx, cell // gx
            nx0, ny0, nz0 = spec.nominal_position(cx, cy)
            tx0 = nx0 + int(jitter[cell, 0])
            ty0 = ny0 + int(jitter[cell, 1])
            crop = self.specimen[tx0 : tx0 + vx, ty0 : ty0 + vy, :vz].copy()
            crop += spec.noise * rng.standard_normal(crop.shape)
            self.volumes.append(crop)

    @property
    def n_volumes(self) -> int:
        """Number of volumes (``gx * gy``)."""
        return self.spec.gx * self.spec.gy

    def volume(self, cell: int) -> np.ndarray:
        """The acquired stack of linear cell index ``cell``."""
        return self.volumes[cell]

    def true_pairwise_offset(self, cell_a: int, cell_b: int) -> np.ndarray:
        """Ground-truth extra displacement of ``b`` relative to ``a``
        beyond the nominal pitch (what correlation should measure)."""
        return self.true_offsets[cell_b] - self.true_offsets[cell_a]
