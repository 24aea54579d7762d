"""The JOIN operation of the distributed merge-tree protocol.

A round-``r`` join receives the boundary components of ``k`` sibling
regions (round ``r-1`` subtrees, or leaf blocks when ``r == 1``) and:

1. unions components that touch across region interfaces — two superlevel
   boundary voxels that are 6-adjacent in the global grid merge their
   components;
2. elects each merged component's representative (maximum ``(value,
   gid)`` over the member reps — the true component maximum, because a
   component's max is one of its member regions' maxima);
3. emits the *relabel map* ``old rep -> (new rep, value)`` for every
   component whose representative changed — this is the augmented
   boundary tree sent down to the corrections; and
4. emits the merged region's boundary components *reduced to its outer
   boundary*: voxels whose every 6-neighbor lies inside the merged
   region can never participate in a later join and are dropped, along
   with components that no longer own any boundary voxel.

Everything is deterministic; the tests verify the end-to-end distributed
segmentation equals the scipy reference for random fields and arbitrary
decompositions.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Collection, Sequence

import numpy as np

from repro.analysis.mergetree.blocks import BlockDecomposition
from repro.analysis.mergetree.boundary import BoundaryComponents
from repro.analysis.mergetree.union_find import UnionFind

#: Relabel map type: old rep gid -> (new rep gid, new rep value).
RelabelMap = dict[int, tuple[int, float]]


def join_components(
    parts: Sequence[BoundaryComponents],
    decomp: BlockDecomposition,
    region_blocks: Collection[int],
) -> tuple[BoundaryComponents, RelabelMap]:
    """Join sibling boundary components into one region.

    Args:
        parts: the children's boundary payloads, as the protocol builds
            them: the children are disjoint, and two adjacent voxels
            carried by the *same* child already share a component (its
            own local compute or join united them).
        decomp: the shared block decomposition.
        region_blocks: block indices of the merged region (the join's
            subtree, holding every child's blocks); used to decide which
            voxels remain on the outer boundary.  A ``range`` — what
            :meth:`MergeTreeGraph.subtree_leaves` returns — is tested by
            its two ends, any other collection by binary search.

    Returns:
        ``(merged_boundary, relabel_map)``.
    """
    # A child that carries no voxel can neither merge nor stay.
    parts = [p for p in parts if p.n_voxels]
    if not parts:
        return BoundaryComponents.empty(), {}

    # Concatenate children (gids are disjoint across children) and sort
    # by gid so neighbor membership is a binary search, not a dict probe.
    if len(parts) == 1:
        (only,) = parts
        sg = only.gids
        srep = only.comp_gid[only.comp_idx]
    else:
        all_gids = np.concatenate([p.gids for p in parts])
        order = np.argsort(all_gids, kind="stable")
        sg = all_gids[order]
        srep = np.concatenate([p.comp_gid[p.comp_idx] for p in parts])[order]
    comp_val: dict[int, float] = {}
    for p in parts:
        comp_val.update(zip(p.comp_gid.tolist(), p.comp_val.tolist()))
    _, ny, nz = decomp.shape
    q, z = np.divmod(sg, nz)
    x, y = np.divmod(q, ny)

    # With one child left nothing touches across an interface.
    relabel: RelabelMap = (
        _unite(_adjacent_reps(sg, srep, y, z, ny, nz), comp_val)
        if len(parts) > 1
        else {}
    )

    # Reduce to the merged region's outer boundary: keep a voxel when one
    # of its six neighbors lies in a block outside the region.  A step
    # inside a block or off the grid's edge stays in the voxel's own
    # block, which the region holds.
    (own_x, step_x), (own_y, step_y), (own_z, step_z) = _block_steps(decomp)
    neighbors = (own_x[x] + own_y[y] + own_z[z]) + np.concatenate(
        (step_x[:, x], step_y[:, y], step_z[:, z])
    )
    outer = ~_in_region(neighbors, region_blocks).all(axis=0)
    if not outer.any():
        return BoundaryComponents.empty(), relabel

    comp_gid, comp_idx = np.unique(srep[outer], return_inverse=True)
    if relabel:
        renamed = [relabel[r][0] if r in relabel else r for r in comp_gid.tolist()]
        comp_gid, merged_idx = np.unique(
            np.array(renamed, dtype=np.int64), return_inverse=True
        )
        comp_idx = merged_idx[comp_idx]
    merged = BoundaryComponents._trusted(
        sg[outer],
        comp_idx.astype(np.int32),
        comp_gid,
        np.array([comp_val[g] for g in comp_gid.tolist()], dtype=np.float64),
    )
    return merged, relabel


def _adjacent_reps(
    sg: np.ndarray, srep: np.ndarray, y: np.ndarray, z: np.ndarray, ny: int, nz: int
) -> set[tuple[int, int]]:
    """Distinct ``(rep, rep)`` pairs of 6-adjacent carried voxels in
    different components.  ``sg`` is ascending; ``srep``, ``y`` and ``z``
    align with it.

    Adjacency is symmetric, so probing only the +stride neighbor of each
    axis finds every pair once; the partition depends only on the *set*
    of adjacent rep pairs, not their multiplicity or order, and everything
    downstream depends only on the partition.
    """
    n = len(sg)
    probe = np.concatenate((sg + 1, sg + nz, sg + ny * nz))
    pos = np.searchsorted(sg, probe)
    np.minimum(pos, n - 1, out=pos)  # out-of-range probes cannot match
    hit = sg[pos] == probe
    # One step past the end of a z row or a y column is the start of the
    # next one, not a neighbor (past the last x plane there is no gid).
    hit[:n] &= z < nz - 1
    hit[n : 2 * n] &= y < ny - 1
    at = hit.nonzero()[0]
    ra = srep[at % n]
    rb = srep[pos[at]]
    differ = ra != rb
    return set(zip(ra[differ].tolist(), rb[differ].tolist()))


def _unite(
    pairs: set[tuple[int, int]], comp_val: dict[int, float]
) -> RelabelMap:
    """Union the touching components and elect each class's
    representative; the map sends every other member to it."""
    if not pairs:
        return {}
    uf = UnionFind()
    for rep in comp_val:
        uf.add(rep)
    for a, b in pairs:
        uf.union(a, b)
    classes: dict[int, list[int]] = {}
    for rep in comp_val:
        classes.setdefault(uf.find(rep), []).append(rep)
    relabel: RelabelMap = {}
    for members in classes.values():
        if len(members) > 1:
            best = max(members, key=lambda r: (comp_val[r], r))
            elected = (best, comp_val[best])
            for r in members:
                if r != best:
                    relabel[r] = elected
    return relabel


@lru_cache(maxsize=16)
def _block_steps(decomp: BlockDecomposition) -> tuple:
    """Per axis ``(own, step)``, read-only: ``own[c]`` is the axis's term
    of the block index of a voxel at coordinate ``c`` (the three terms
    add up to the index), and ``step[:, c]`` is how that term changes one
    voxel down / up the axis — zero inside a block and at the grid's edge.
    """
    _, by, bz = decomp.layout
    out = []
    for table, mult in zip(decomp.axis_block_tables(), (by * bz, bz, 1)):
        own = table * mult
        step = np.zeros((2, len(own)), dtype=np.int64)
        step[0, 1:] = own[:-1] - own[1:]
        step[1, :-1] = own[1:] - own[:-1]
        own.flags.writeable = False
        step.flags.writeable = False
        out.append((own, step))
    return tuple(out)


def _in_region(blocks: np.ndarray, region_blocks: Collection[int]) -> np.ndarray:
    """Elementwise ``block in region_blocks``."""
    if isinstance(region_blocks, range) and region_blocks.step == 1:
        return (blocks >= region_blocks.start) & (blocks < region_blocks.stop)
    members = np.sort(
        np.fromiter(region_blocks, dtype=np.int64, count=len(region_blocks))
    )
    if not len(members):
        return np.zeros(blocks.shape, dtype=bool)
    pos = np.minimum(np.searchsorted(members, blocks), len(members) - 1)
    return members[pos] == blocks


def compose_relabel(current: RelabelMap, update: RelabelMap) -> RelabelMap:
    """Compose an accumulated relabel map with a newer round's map.

    ``current`` maps original local reps to their latest global reps;
    ``update`` maps latest reps onward.  The result again maps original
    reps to the newest reps, and includes ``update``'s fresh entries so
    later compositions stay transitive.
    """
    out = dict(update)
    newer = update.get
    for old, latest in current.items():
        out[old] = newer(latest[0], latest)
    return out
