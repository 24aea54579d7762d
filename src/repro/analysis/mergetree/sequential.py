"""Sequential (single-block) merge-tree construction and segmentation.

This is the computational core of the topological-analysis use case: the
*join tree* of a scalar field tracks how superlevel-set components
``{f >= t}`` appear at maxima and merge at saddles as the threshold ``t``
sweeps downward.  Features ("ignition regions" in the paper's combustion
data) are the components at a fixed threshold, each identified by its
highest vertex.

The implementation is the standard union-find sweep over vertices in
descending scalar order, augmented so *every* vertex is a tree node (the
segmentation needs per-vertex assignment anyway).  Ties are broken by
global vertex id, which makes every result — including across different
block decompositions — deterministic and exactly comparable.

:func:`reference_segmentation` is an independent scipy-based
implementation used by the tests to cross-check the union-find code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.analysis.mergetree.union_find import ArrayUnionFind

#: 6-connected neighbor offsets as (dx, dy, dz).
_OFFSETS = ((-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1))


@dataclass
class JoinTree:
    """An augmented join tree over a set of vertices.

    Nodes are stored in *sweep order* (descending ``(value, gid)``), so
    node 0 is the global maximum of the set.  ``parent[i]`` is the sweep
    index of the next lower node ``i``'s component grew into (or -1 for
    the last node of a connected component, the tree root at the
    component's minimum).

    Attributes:
        gids: global vertex id per node.
        values: scalar value per node.
        parent: parent sweep-index per node (-1 at roots).
        flat: optional flat (C-order) voxel index per node within the
            source block; :func:`block_join_tree` fills it so
            :func:`segment_block` can scatter labels without a gid
            lookup.
    """

    gids: np.ndarray
    values: np.ndarray
    parent: np.ndarray
    flat: np.ndarray | None = None

    @property
    def n_nodes(self) -> int:
        """Number of nodes (vertices) in the tree."""
        return len(self.gids)

    def roots(self) -> np.ndarray:
        """Sweep indices of the tree roots (component minima)."""
        return np.nonzero(self.parent < 0)[0]

    def maxima(self) -> np.ndarray:
        """Sweep indices of the leaves of the join tree (local maxima)."""
        has_child = np.zeros(self.n_nodes, dtype=bool)
        valid = self.parent >= 0
        has_child[self.parent[valid]] = True
        return np.nonzero(~has_child)[0]

    def validate(self) -> None:
        """Check structural invariants (tests call this).

        Raises:
            ValueError: if nodes are not in sweep order, or a parent does
                not have a lower ``(value, gid)`` than its child.
        """
        v, g = self.values, self.gids
        order = np.lexsort((-g, -v))
        if not np.array_equal(order, np.arange(self.n_nodes)):
            raise ValueError("nodes are not in descending sweep order")
        valid = self.parent >= 0
        child = np.nonzero(valid)[0]
        par = self.parent[valid]
        bad = (v[par] > v[child]) | ((v[par] == v[child]) & (g[par] > g[child]))
        if bad.any():
            raise ValueError("a parent node is higher than its child")

    # ------------------------------------------------------------------ #
    # Segmentation
    # ------------------------------------------------------------------ #

    def segment(self, threshold: float) -> np.ndarray:
        """Label every node with the gid of its feature at ``threshold``.

        A feature is a connected component of the superlevel set
        ``{value >= threshold}``; its label is the gid of its highest
        vertex (ties to the higher gid).  Nodes below the threshold get
        label -1.

        Returns:
            int64 array aligned with the node arrays.
        """
        n = self.n_nodes
        mask = self.values >= threshold
        if not mask.any():
            return np.full(n, -1, dtype=np.int64)
        # Plain lists: the two scans below touch one element at a time.
        above = mask.tolist()
        parent = self.parent.tolist()
        gids = self.gids.tolist()
        # piece_root[i]: the lowest node of i's superlevel piece.  Parents
        # come later in sweep order, so a reverse scan sees parents first.
        piece_root = list(range(n))
        for i in range(n - 1, -1, -1):
            if above[i]:
                p = parent[i]
                if p >= 0 and above[p]:
                    piece_root[i] = piece_root[p]
        # The first node of each piece in sweep order is its maximum.
        rep_of_piece: dict[int, int] = {}
        labels = [-1] * n
        for i in range(n):
            if above[i]:
                labels[i] = gids[rep_of_piece.setdefault(piece_root[i], i)]
        return np.array(labels, dtype=np.int64)

    def feature_count(self, threshold: float) -> int:
        """Number of features (superlevel components) at ``threshold``."""
        labels = self.segment(threshold)
        return len(np.unique(labels[labels >= 0]))

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def persistence_pairs(self) -> list[tuple[int, int, float]]:
        """Branch decomposition of the join tree.

        Sweeping the threshold downward, every local maximum starts a
        component; when two components meet at a merge saddle the one
        with the lower maximum *dies* there.  Returns one
        ``(max_sweep_index, saddle_sweep_index, persistence)`` triple per
        dying branch (the globally highest maximum of each connected
        component never dies and is not listed).  Persistence is
        ``value[max] - value[saddle]``, always >= 0.
        """
        n = self.n_nodes
        children: dict[int, list[int]] = {}
        for i in range(n):
            p = int(self.parent[i])
            if p >= 0:
                children.setdefault(p, []).append(i)
        rep = np.arange(n, dtype=np.int64)  # surviving max per branch
        pairs: list[tuple[int, int, float]] = []
        # Children have higher values, hence smaller sweep indices: a
        # forward scan sees every child before its parent.
        for v in range(n):
            ch = children.get(v)
            if not ch:
                continue  # a maximum: starts its own branch
            best = min(ch, key=lambda c: int(rep[c]))  # smallest index = highest
            for c in ch:
                if rep[c] != rep[best]:
                    dying = int(rep[c])
                    pairs.append(
                        (dying, v, float(self.values[dying] - self.values[v]))
                    )
            rep[v] = rep[best]
        return pairs

    def simplified_segment(
        self,
        threshold: float,
        min_persistence: float,
        merge_across_threshold: bool = False,
    ) -> np.ndarray:
        """Segment at ``threshold`` after persistence simplification.

        Features whose maximum dies with persistence below
        ``min_persistence`` are merged into the feature that absorbed
        them.  Two semantics are offered:

        * ``merge_across_threshold=False`` (default): a dying feature
          merges only when its saddle lies at or above the threshold.
          Since two *distinct* superlevel components always connect below
          the threshold, this semantic only collapses maxima inside one
          component — it cleans labels, never feature counts.
        * ``merge_across_threshold=True``: branch-decomposition semantics
          (Landge et al.'s relevance-style segmentation): a low-
          persistence branch hands its voxels to its absorbing branch
          even when the connecting saddle is below the threshold, so
          spatially separate lobes of one "simplified feature" share a
          label and the feature count drops as ``min_persistence``
          rises.

        ``min_persistence = 0`` reproduces :meth:`segment` exactly.

        Note: cross-threshold merging needs the saddles to *exist* in the
        tree — build it without threshold pruning
        (``block_join_tree(..., threshold=-inf)``) when using
        ``merge_across_threshold=True``.
        """
        labels = self.segment(threshold)
        if min_persistence <= 0:
            return labels
        # Map each dying max gid to its absorber via low-persistence
        # saddles above the threshold.
        index_of = {int(g): i for i, g in enumerate(self.gids)}
        absorber: dict[int, int] = {}
        saddle_rep: dict[int, int] = {}
        n = self.n_nodes
        children: dict[int, list[int]] = {}
        for i in range(n):
            p = int(self.parent[i])
            if p >= 0:
                children.setdefault(p, []).append(i)
        rep = np.arange(n, dtype=np.int64)
        for v in range(n):
            ch = children.get(v)
            if not ch:
                continue
            best = min(ch, key=lambda c: int(rep[c]))
            for c in ch:
                if rep[c] != rep[best]:
                    dying = int(rep[c])
                    pers = float(self.values[dying] - self.values[v])
                    saddle_ok = (
                        merge_across_threshold
                        or self.values[v] >= threshold
                    )
                    if pers < min_persistence and saddle_ok:
                        absorber[dying] = int(rep[best])
            rep[v] = rep[best]

        def resolve(idx: int) -> int:
            seen = []
            while idx in absorber:
                seen.append(idx)
                idx = absorber[idx]
            for s in seen:
                absorber[s] = idx
            return idx

        out = labels.copy()
        for i in range(n):
            l = int(labels[i])
            if l < 0:
                continue
            li = index_of[l]
            ri = resolve(li)
            if ri != li:
                out[i] = self.gids[ri]
        return out

    def simplified_feature_count(
        self,
        threshold: float,
        min_persistence: float,
        merge_across_threshold: bool = False,
    ) -> int:
        """Feature count after persistence simplification."""
        labels = self.simplified_segment(
            threshold, min_persistence, merge_across_threshold
        )
        return len(np.unique(labels[labels >= 0]))


def block_join_tree(
    block: np.ndarray, gids: np.ndarray, threshold: float = -np.inf
) -> JoinTree:
    """Build the join tree of one 3D block.

    Args:
        block: scalar field of shape ``(sx, sy, sz)``.
        gids: int64 array of the same shape with each voxel's *global*
            vertex id (ties in value break toward the higher gid).
        threshold: vertices below it are excluded entirely.  Passing the
            analysis threshold ("relevance" pruning) shrinks the tree to
            exactly what feature extraction needs.

    Returns:
        The join tree over the included voxels.
    """
    if block.shape != gids.shape:
        raise ValueError(f"block {block.shape} and gids {gids.shape} differ")
    if block.ndim != 3:
        raise ValueError("block must be 3D")
    flat_vals = np.asarray(block, dtype=np.float64).ravel()
    cand = (flat_vals >= threshold).nonzero()[0]
    ids = np.asarray(gids, dtype=np.int64).ravel()[cand]
    return _sweep(block.shape, cand, flat_vals[cand], ids)


def _sweep(
    shape: tuple[int, int, int],
    cand: np.ndarray,
    vals: np.ndarray,
    ids: np.ndarray,
) -> JoinTree:
    """The union-find sweep over the voxels a tree is built from.

    Args:
        shape: the source block's shape.
        cand: ascending flat (C-order) indices of the included voxels.
        vals: their scalar values.
        ids: their global vertex ids.
    """
    sx, sy, sz = shape
    # Descending (value, gid): lexsort sorts ascending by last key.
    order = np.lexsort((-ids, -vals))
    vals = vals[order]
    ids = ids[order]
    flat_of_slot = cand[order]
    m = len(cand)
    if m == 0:
        return JoinTree(ids, vals, np.full(0, -1, dtype=np.int64), flat_of_slot)

    # The loop below touches one voxel at a time, where plain lists beat
    # arrays.  slot_of[flat voxel index] -> sweep slot, -1 when excluded.
    flats = flat_of_slot.tolist()
    slot_of = [-1] * (sx * sy * sz)
    for slot, flat in enumerate(flats):
        slot_of[flat] = slot
    parent = [-1] * m
    uf = ArrayUnionFind(m)
    find, union = uf.find, uf.union
    syz = sy * sz
    x_last, y_last, z_last = sx - 1, sy - 1, sz - 1
    for slot, flat in enumerate(flats):
        q, z = divmod(flat, sz)
        x, y = divmod(q, sy)
        for u_slot in (
            slot_of[flat - syz] if x else -1,
            slot_of[flat + syz] if x < x_last else -1,
            slot_of[flat - sz] if y else -1,
            slot_of[flat + sz] if y < y_last else -1,
            slot_of[flat - 1] if z else -1,
            slot_of[flat + 1] if z < z_last else -1,
        ):
            if not 0 <= u_slot < slot:
                continue  # excluded, or not yet processed (lower)
            # ``slot`` is the root of its own set (every union below keeps
            # it), and any set's root is its most recently swept — its
            # lowest — node: the one whose tree parent ``slot`` becomes.
            root = find(u_slot)
            if root != slot:
                parent[root] = slot
                union(root, slot)
    return JoinTree(ids, vals, np.array(parent, dtype=np.int64), flat_of_slot)


def block_split_tree(
    block: np.ndarray, gids: np.ndarray, threshold: float = np.inf
) -> JoinTree:
    """Build the *split tree* of a block: sublevel-set components.

    The split tree is the join tree of the negated field — it tracks how
    components of ``{f <= t}`` appear at minima and merge as ``t`` rises.
    The returned structure stores the negated values (so
    :class:`JoinTree` invariants hold unchanged); segmenting it at
    ``-threshold`` labels sublevel components by their (negated-value)
    representative, i.e. the component *minimum*.

    Args:
        block: scalar field of shape ``(sx, sy, sz)``.
        gids: global vertex ids, same shape.
        threshold: vertices strictly above it are excluded (mirror of the
            join tree's pruning).
    """
    return block_join_tree(-np.asarray(block, dtype=np.float64), gids, -threshold)


def segment_block(
    block: np.ndarray, gids: np.ndarray, threshold: float
) -> np.ndarray:
    """Segment one block at ``threshold`` (block-local connectivity only).

    Returns:
        int64 label volume shaped like ``block``: the gid of each voxel's
        local feature representative, or -1 below the threshold.
    """
    return _scatter(block_join_tree(block, gids, threshold), threshold, block.shape)


def segment_candidates(
    shape: tuple[int, int, int],
    cand: np.ndarray,
    vals: np.ndarray,
    ids: np.ndarray,
    threshold: float,
) -> np.ndarray:
    """:func:`segment_block` for a caller that already holds the
    threshold mask of a block of ``shape``: ``cand`` are the ascending
    flat (C-order) indices of the voxels at or above ``threshold``,
    ``vals`` their values and ``ids`` their global ids."""
    return _scatter(_sweep(shape, cand, vals, ids), threshold, shape)


def _scatter(tree: JoinTree, threshold: float, shape: tuple) -> np.ndarray:
    """Label volume of ``shape`` from the tree of its block."""
    out = np.full(shape[0] * shape[1] * shape[2], -1, dtype=np.int64)
    # The tree carries each node's flat voxel index, so labels scatter
    # straight back into the block without a gid lookup.
    out[tree.flat] = tree.segment(threshold)
    return out.reshape(shape)


@lru_cache(maxsize=64)
def inactive_labels(shape: tuple[int, ...]) -> np.ndarray:
    """The label volume of a block with no voxel at or above the
    threshold: all -1.  One read-only array per block shape, shared by
    every such block — copy before writing."""
    out = np.full(shape, -1, dtype=np.int64)
    out.flags.writeable = False
    return out


def reference_segmentation(field: np.ndarray, threshold: float) -> np.ndarray:
    """Independent global segmentation via :func:`scipy.ndimage.label`.

    Labels every voxel of ``field`` with the *gid* (C-order linear index)
    of the highest voxel of its 6-connected superlevel component, ties to
    the higher gid; -1 below threshold.  Used as ground truth in tests.
    """
    from scipy import ndimage

    mask = field >= threshold
    structure = ndimage.generate_binary_structure(3, 1)  # 6-connectivity
    comp, n = ndimage.label(mask, structure=structure)
    out = np.full(field.shape, -1, dtype=np.int64)
    if n == 0:
        return out
    flat_comp = comp.ravel()
    flat_vals = field.ravel()
    gids = np.arange(field.size, dtype=np.int64)
    # Representative per component: max value, ties to max gid.
    order = np.lexsort((gids, flat_vals))  # ascending; last wins
    rep = np.zeros(n + 1, dtype=np.int64)
    rep[flat_comp[order]] = gids[order]
    out_flat = np.where(flat_comp > 0, rep[flat_comp], -1)
    return out_flat.reshape(field.shape)
