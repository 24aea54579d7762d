"""Boundary trees for the distributed merge-tree protocol.

What must travel up the reduction is the part of a block's (or merged
region's) topology that can still change: the superlevel voxels on the
region's *outer* boundary, each tagged with its current component, plus
each such component's representative (its highest vertex — which may be
interior, so it is carried explicitly).  This is the fixed-threshold
analogue of Landge et al.'s boundary tree: interior structure is final
and stays home; boundary structure participates in joins.

:class:`BoundaryComponents` is that payload.  :func:`extract_boundary`
builds one from a leaf block's local segmentation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.mergetree.blocks import BlockDecomposition


@dataclass(eq=False)
class BoundaryComponents:
    """Superlevel boundary voxels of a region with component tags.

    Attributes:
        gids: int64 global ids of the boundary voxels (ascending, unique).
        comp_idx: int32 per-voxel index into the component table.
        comp_gid: int64 representative gid per component (the component's
            highest vertex anywhere in the region, ties to higher gid).
        comp_val: float64 representative value per component.
    """

    gids: np.ndarray
    comp_idx: np.ndarray
    comp_gid: np.ndarray
    comp_val: np.ndarray

    def __post_init__(self) -> None:
        if len(self.gids) != len(self.comp_idx):
            raise ValueError("gids and comp_idx must align")
        if len(self.comp_gid) != len(self.comp_val):
            raise ValueError("component table arrays must align")
        if len(self.comp_idx) and self.comp_idx.max(initial=-1) >= len(self.comp_gid):
            raise ValueError("comp_idx out of component-table range")

    @property
    def n_voxels(self) -> int:
        """Number of boundary voxels carried."""
        return len(self.gids)

    @property
    def n_components(self) -> int:
        """Number of live components carried."""
        return len(self.comp_gid)

    @property
    def nbytes(self) -> int:
        """Wire size estimate (used by the network model)."""
        return int(
            self.gids.nbytes
            + self.comp_idx.nbytes
            + self.comp_gid.nbytes
            + self.comp_val.nbytes
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BoundaryComponents):
            return NotImplemented
        return (
            np.array_equal(self.gids, other.gids)
            and np.array_equal(self.comp_idx, other.comp_idx)
            and np.array_equal(self.comp_gid, other.comp_gid)
            and np.array_equal(self.comp_val, other.comp_val)
        )

    @classmethod
    def _trusted(cls, gids, comp_idx, comp_gid, comp_val) -> "BoundaryComponents":
        """Boundary from arrays this package built itself: they align by
        construction, so ``__post_init__`` is not re-run."""
        bc = object.__new__(cls)
        bc.gids = gids
        bc.comp_idx = comp_idx
        bc.comp_gid = comp_gid
        bc.comp_val = comp_val
        return bc

    @classmethod
    def empty(cls) -> "BoundaryComponents":
        """The boundary with no voxels and no components: one shared
        instance (its zero-length arrays hold nothing to overwrite).
        Recognize it by ``n_voxels == 0``, never by identity — a payload
        that crossed a process boundary is a copy."""
        return _EMPTY

    def component_of(self, gid: int) -> tuple[int, float]:
        """Representative ``(gid, value)`` of the component holding a
        boundary voxel (test helper).

        Raises:
            KeyError: when ``gid`` is not a carried boundary voxel.
        """
        pos = np.searchsorted(self.gids, gid)
        if pos >= len(self.gids) or self.gids[pos] != gid:
            raise KeyError(f"gid {gid} not on this boundary")
        c = int(self.comp_idx[pos])
        return int(self.comp_gid[c]), float(self.comp_val[c])


def extract_boundary(
    decomp: BlockDecomposition,
    block_index: int,
    labels: np.ndarray,
    values: np.ndarray,
    gids: np.ndarray | None = None,
) -> BoundaryComponents:
    """Build the boundary payload of one leaf block.

    Args:
        decomp: the shared block decomposition.
        block_index: which block this is.
        labels: the block's local segmentation (gid of local rep per
            voxel, -1 below threshold), as from
            :func:`~repro.analysis.mergetree.sequential.segment_block`.
        values: the block's scalar field (to record rep values).
        gids: the block's global-id array, if the caller already has it
            (otherwise the carried voxels' ids alone are computed from
            the decomposition).

    Only voxels on faces shared with a neighboring block are carried;
    grid-boundary faces cannot merge with anything.
    """
    if labels.shape != values.shape:
        raise ValueError("labels and values must have the same shape")
    mask = decomp.boundary_mask(block_index) & (labels >= 0)
    sel = mask.ravel().nonzero()[0]
    if not len(sel):
        return BoundaryComponents.empty()
    # gid = (x*ny + y)*nz + z is strictly increasing in the block's C
    # order, and ``sel`` is ascending, so the selected gids are already
    # ascending — no sort needed.
    if gids is None:
        sel_gids = decomp.gids_of(block_index, sel)
    else:
        sel_gids = gids.ravel()[sel].astype(np.int64, copy=False)
    comp_gid, comp_idx = np.unique(labels.ravel()[sel], return_inverse=True)
    comp_gid = comp_gid.astype(np.int64, copy=False)
    # Representative values: reps are voxels of this block, so translate
    # each rep gid to block-local coordinates and read the field.
    (x0, _), (y0, _), (z0, _) = decomp.block_bounds(block_index)
    _, ny, nz = decomp.shape
    q, rz = np.divmod(comp_gid, nz)
    rx, ry = np.divmod(q, ny)
    comp_val = values[rx - x0, ry - y0, rz - z0].astype(np.float64, copy=False)
    return BoundaryComponents._trusted(
        sel_gids, comp_idx.astype(np.int32), comp_gid, comp_val
    )


_EMPTY = BoundaryComponents(
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=np.int32),
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=np.float64),
)
