"""Block decomposition of a 3D scalar grid for the merge-tree dataflow.

The distributed merge tree works on a regular decomposition of the global
grid into ``n`` axis-aligned blocks; every task (local compute, join,
correction, segmentation) shares the same static
:class:`BlockDecomposition` and uses it to translate between global linear
vertex ids, global coordinates and block indices — exactly the kind of
small procedural metadata the paper replicates on every rank instead of
shipping around.

Conventions: arrays are indexed ``[x, y, z]`` in C order; the global
linear id of coordinate ``(x, y, z)`` is ``(x * ny + y) * nz + z``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.util.partition import block_layout, split_range

#: Offsets of the 6-connected neighborhood.
NEIGHBOR_OFFSETS: tuple[tuple[int, int, int], ...] = (
    (-1, 0, 0),
    (1, 0, 0),
    (0, -1, 0),
    (0, 1, 0),
    (0, 0, -1),
    (0, 0, 1),
)


@dataclass(frozen=True)
class BlockDecomposition:
    """Static decomposition of ``shape`` into a grid of blocks.

    Args:
        shape: global grid shape ``(nx, ny, nz)``.
        layout: blocks per axis ``(bx, by, bz)``.

    Use :meth:`regular` to build one from a desired block count.
    """

    shape: tuple[int, int, int]
    layout: tuple[int, int, int]

    @classmethod
    def regular(cls, shape: tuple[int, int, int], nblocks: int) -> "BlockDecomposition":
        """Decompose ``shape`` into ``nblocks`` near-cubic blocks."""
        return cls(tuple(shape), block_layout(shape, nblocks))

    def __post_init__(self) -> None:
        # Normalize to tuples so the decomposition is hashable (the
        # hot-path per-block caches below are keyed by it).
        object.__setattr__(self, "shape", tuple(self.shape))
        object.__setattr__(self, "layout", tuple(self.layout))
        if len(self.shape) != 3 or len(self.layout) != 3:
            raise ValueError("shape and layout must be 3D")
        for s, l in zip(self.shape, self.layout):
            if s <= 0 or l <= 0:
                raise ValueError(f"invalid shape {self.shape} / layout {self.layout}")
            if l > s:
                raise ValueError(
                    f"more blocks than grid points along an axis "
                    f"({self.layout} vs {self.shape})"
                )

    @property
    def n_blocks(self) -> int:
        """Total number of blocks."""
        bx, by, bz = self.layout
        return bx * by * bz

    # ------------------------------------------------------------------ #
    # Block index algebra (z-fastest, matching util.partition order)
    # ------------------------------------------------------------------ #

    def block_coords(self, block: int) -> tuple[int, int, int]:
        """Per-axis block coordinate of block index ``block``."""
        bx, by, bz = self.layout
        if not 0 <= block < bx * by * bz:
            raise ValueError(f"block {block} out of range")
        cz = block % bz
        cy = (block // bz) % by
        cx = block // (by * bz)
        return cx, cy, cz

    def block_index(self, coords: tuple[int, int, int]) -> int:
        """Inverse of :meth:`block_coords`."""
        cx, cy, cz = coords
        bx, by, bz = self.layout
        if not (0 <= cx < bx and 0 <= cy < by and 0 <= cz < bz):
            raise ValueError(f"block coords {coords} out of layout {self.layout}")
        return (cx * by + cy) * bz + cz

    @lru_cache(maxsize=None)
    def block_bounds(self, block: int) -> tuple[tuple[int, int], ...]:
        """Per-axis ``[lo, hi)`` voxel bounds of ``block`` (cached: the
        decomposition is immutable and every task recomputes its block's
        bounds)."""
        coords = self.block_coords(block)
        return tuple(
            split_range(s, parts, c)
            for s, parts, c in zip(self.shape, self.layout, coords)
        )

    @lru_cache(maxsize=None)
    def axis_block_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-axis lookup arrays mapping a global coordinate to its
        block coordinate along that axis (cached, read-only).

        ``axis_block_tables()[0][x]`` equals the x block coordinate that
        :meth:`block_of_point` computes — the closed-form divmod algebra,
        tabulated once so bulk queries are plain fancy indexing.
        """
        tables = []
        for size, parts in zip(self.shape, self.layout):
            base, extra = divmod(size, parts)
            pivot = extra * (base + 1)
            v = np.arange(size, dtype=np.int64)
            if base:
                t = np.where(
                    v < pivot, v // (base + 1), extra + (v - pivot) // base
                )
            else:
                t = v  # base == 0: every block holds exactly one voxel
            t.flags.writeable = False
            tables.append(t)
        return tuple(tables)

    def block_of_point(self, x: int, y: int, z: int) -> int:
        """Block containing global coordinate ``(x, y, z)``."""
        coords = []
        for v, s, parts in zip((x, y, z), self.shape, self.layout):
            if not 0 <= v < s:
                raise ValueError(f"point ({x},{y},{z}) outside grid {self.shape}")
            base, extra = divmod(s, parts)
            pivot = extra * (base + 1)
            if v < pivot:
                coords.append(v // (base + 1))
            else:
                coords.append(extra + (v - pivot) // base if base else extra)
        return self.block_index(tuple(coords))

    # ------------------------------------------------------------------ #
    # Vertex id algebra
    # ------------------------------------------------------------------ #

    def gid(self, x: int, y: int, z: int) -> int:
        """Global linear id of coordinate ``(x, y, z)``."""
        _, ny, nz = self.shape
        return (x * ny + y) * nz + z

    def coords(self, gid: int) -> tuple[int, int, int]:
        """Inverse of :meth:`gid`."""
        nx, ny, nz = self.shape
        if not 0 <= gid < nx * ny * nz:
            raise ValueError(f"gid {gid} outside grid")
        z = gid % nz
        y = (gid // nz) % ny
        x = gid // (ny * nz)
        return x, y, z

    def gids_array(self, bounds: tuple[tuple[int, int], ...]) -> np.ndarray:
        """Global ids of every voxel in ``bounds``, shaped like the block."""
        (x0, x1), (y0, y1), (z0, z1) = bounds
        _, ny, nz = self.shape
        xs = np.arange(x0, x1, dtype=np.int64)[:, None, None]
        ys = np.arange(y0, y1, dtype=np.int64)[None, :, None]
        zs = np.arange(z0, z1, dtype=np.int64)[None, None, :]
        return (xs * ny + ys) * nz + zs

    def gids_of(self, block: int, flat: np.ndarray) -> np.ndarray:
        """Global ids of the voxels at C-order flat indices ``flat`` of
        ``block`` — ``gids_array(block_bounds(block)).ravel()[flat]``
        without building the block-sized array."""
        (x0, _), (y0, y1), (z0, z1) = self.block_bounds(block)
        _, ny, nz = self.shape
        q, z = np.divmod(flat, z1 - z0)
        x, y = np.divmod(q, y1 - y0)
        return ((x + x0) * ny + (y + y0)) * nz + (z + z0)

    def extract_block(self, field: np.ndarray, block: int) -> np.ndarray:
        """Copy of one block's sub-array of the global ``field``."""
        if field.shape != self.shape:
            raise ValueError(
                f"field shape {field.shape} != decomposition shape {self.shape}"
            )
        (x0, x1), (y0, y1), (z0, z1) = self.block_bounds(block)
        return np.ascontiguousarray(field[x0:x1, y0:y1, z0:z1])

    @lru_cache(maxsize=None)
    def boundary_mask(self, block: int) -> np.ndarray:
        """Boolean mask (block-shaped) of voxels on an *interior* block
        face, i.e. faces shared with a neighboring block (grid-boundary
        faces do not count: nothing can merge through them).  Cached and
        read-only: combine with ``&``, do not write into it."""
        (x0, x1), (y0, y1), (z0, z1) = self.block_bounds(block)
        shape = (x1 - x0, y1 - y0, z1 - z0)
        mask = np.zeros(shape, dtype=bool)
        nx, ny, nz = self.shape
        if x0 > 0:
            mask[0, :, :] = True
        if x1 < nx:
            mask[-1, :, :] = True
        if y0 > 0:
            mask[:, 0, :] = True
        if y1 < ny:
            mask[:, -1, :] = True
        if z0 > 0:
            mask[:, :, 0] = True
        if z1 < nz:
            mask[:, :, -1] = True
        mask.flags.writeable = False
        return mask
