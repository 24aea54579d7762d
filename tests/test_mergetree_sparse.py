"""The merge tree on sparse fields: most blocks, joins and relabel maps
empty.

``test_mergetree_workload.py`` draws uniform noise on 4 blocks, where no
block is ever empty.  Here the fields are a few isolated peaks placed on
block faces, edges and corners, so the empty-block, empty-join and
pass-through short-circuits carry most tasks — and must give what the
dense pipeline gives: the same segmentation on every controller, and the
same payloads down to their wire size.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.mergetree import (
    BlockDecomposition,
    BoundaryComponents,
    MergeTreeWorkload,
    extract_boundary,
    join_components,
    reference_segmentation,
    segment_block,
)
from repro.analysis.mergetree.union_find import UnionFind
from repro.runtimes import LocalPoolController

from tests.conftest import all_controllers

SHAPE = (12, 12, 8)

#: ``(n_blocks, valence)``: 1-3 join rounds, blocks from 6 x 6 x 4 down
#: to 3 x 3 x 2.
DECOMPOSITIONS = [(8, 2), (16, 4), (64, 4), (8, 8)]

#: Where along one axis of its block a peak sits: on the low face, on the
#: high face, or in the middle.  Three axes of lo/hi make corners, two
#: make edges, one a face.
LO, HI, MID = 0, 1, 2

peaks = st.lists(
    st.tuples(
        st.integers(0, 63),  # block, modulo the decomposition's count
        st.tuples(*[st.sampled_from([LO, HI, MID])] * 3),
        st.sampled_from([0.6, 0.7, 0.8, 0.9, 1.0]),  # ties are likely
        st.booleans(),  # a lone voxel, or one with a halo across the face
    ),
    max_size=6,
)


def sparse_field(decomp: BlockDecomposition, drawn) -> np.ndarray:
    field = np.zeros(decomp.shape)
    for block, where, value, halo in drawn:
        bounds = decomp.block_bounds(block % decomp.n_blocks)
        at = tuple(
            {LO: lo, HI: hi - 1, MID: (lo + hi) // 2}[w]
            for w, (lo, hi) in zip(where, bounds)
        )
        if halo:
            for axis in range(3):
                for step in (-1, 1):
                    n = list(at)
                    n[axis] += step
                    if 0 <= n[axis] < decomp.shape[axis]:
                        n = tuple(n)
                        field[n] = max(field[n], 0.75 * value)
        field[at] = max(field[at], value)
    return field


@pytest.mark.parallel
@settings(deadline=None, max_examples=12)
@given(
    st.sampled_from(DECOMPOSITIONS),
    peaks,
    st.sampled_from([0.45, 0.65]),  # the upper one cuts most halos off
)
def test_sparse_fields_match_reference_on_every_controller(decomposition, drawn, t):
    n_blocks, valence = decomposition
    field = sparse_field(BlockDecomposition.regular(SHAPE, n_blocks), drawn)
    wl = MergeTreeWorkload(field, n_blocks, t, valence=valence)
    ref = reference_segmentation(field, t)
    controllers = all_controllers(4) + [
        LocalPoolController(n_workers=2, mode="inline"),
        LocalPoolController(n_workers=2, mode="thread"),
    ]
    for c in controllers:
        seg = wl.assemble(wl.run(c))
        assert np.array_equal(seg, ref), type(c).__name__


# ---------------------------------------------------------------------- #
# Fast path == dense path, payload by payload
# ---------------------------------------------------------------------- #


def leaf_boundaries(dec, field, t):
    out = []
    for b in range(dec.n_blocks):
        block = dec.extract_block(field, b)
        gids = dec.gids_array(dec.block_bounds(b))
        labels = segment_block(block, gids, t)
        out.append(extract_boundary(dec, b, labels, block, gids))
    return out


def assert_same_boundary(a: BoundaryComponents, b: BoundaryComponents):
    assert a == b
    assert a.nbytes == b.nbytes
    for name in ("gids", "comp_idx", "comp_gid", "comp_val"):
        assert getattr(a, name).dtype == getattr(b, name).dtype, name


@pytest.mark.parametrize("sim_shape", [None, (1024, 1024, 1024)])
def test_empty_local_equals_the_dense_kernels(sim_shape):
    """LOCAL on an all-below-threshold block against ``segment_block`` +
    ``extract_boundary`` called directly on it."""
    rng = np.random.default_rng(3)
    field = rng.random(SHAPE) * 0.4  # nothing reaches 0.45
    wl = MergeTreeWorkload(field, 16, 0.45, valence=4, sim_shape=sim_shape)
    dec, g = wl.decomp, wl.graph
    for b in (0, 5, 15):
        tid = g.local_id(b)
        state, boundary = wl.local_compute([wl.initial_inputs()[tid]], tid)
        block = dec.extract_block(field, b)
        gids = dec.gids_array(dec.block_bounds(b))
        labels = segment_block(block, gids, 0.45)
        assert state.data.block == b and not state.data.active
        assert state.data.relabel == {}
        assert state.data.labels.dtype == labels.dtype
        assert np.array_equal(state.data.labels, labels)
        assert state.nbytes == int(labels.nbytes * wl.volume_scale)
        assert_same_boundary(
            boundary.data, extract_boundary(dec, b, labels, block, gids)
        )
        assert boundary.nbytes == 16  # the floor of a surface payload


def test_local_on_an_active_block_equals_the_public_kernels():
    """The candidate-only path against the whole-block signatures that
    ``repro.runtimes.calibrate`` and the boundary tests call."""
    rng = np.random.default_rng(4)
    field = rng.random((9, 7, 11))
    wl = MergeTreeWorkload(field, 16, 0.6, valence=4)
    dec = wl.decomp
    for b in range(16):
        tid = wl.graph.local_id(b)
        state, boundary = wl.local_compute([wl.initial_inputs()[tid]], tid)
        block = dec.extract_block(field, b)
        gids = dec.gids_array(dec.block_bounds(b))
        labels = segment_block(block, gids, 0.6)
        assert state.data.active
        assert np.array_equal(state.data.labels, labels)
        for given_gids in (gids, None):
            assert_same_boundary(
                boundary.data, extract_boundary(dec, b, labels, block, given_gids)
            )


def test_gids_of_matches_the_block_sized_array():
    dec = BlockDecomposition((9, 7, 11), (2, 2, 3))
    for b in range(dec.n_blocks):
        full = dec.gids_array(dec.block_bounds(b)).ravel()
        flat = np.arange(full.size)[::2]
        assert np.array_equal(dec.gids_of(b, flat), full[flat])


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000), st.sampled_from([0.5, 0.7, 0.9]))
def test_join_with_and_without_its_empty_parts(seed, t):
    rng = np.random.default_rng(seed)
    field = rng.random((8, 6, 6))
    field[:4] *= 0.4  # blocks 0 and 1 of four stay below every threshold
    dec = BlockDecomposition((8, 6, 6), (4, 1, 1))
    parts = leaf_boundaries(dec, field, t)
    assert parts[0].n_voxels == parts[1].n_voxels == 0
    region = range(4)
    with_empty = join_components(parts, dec, region)
    without = join_components(parts[2:], dec, region)
    padded = join_components(
        [BoundaryComponents.empty(), parts[2], BoundaryComponents.empty(), parts[3]],
        dec, region,
    )
    dense = _join_reference(parts, dec, region)  # empties through every stage
    for merged, relabel in (with_empty, without, padded):
        assert_same_boundary(merged, dense[0])
        assert relabel == dense[1]


def test_all_empty_join_is_the_empty_boundary_and_an_empty_map():
    dec = BlockDecomposition((4, 4, 4), (2, 1, 1))
    for parts in ([], [BoundaryComponents.empty()] * 2):
        merged, relabel = join_components(parts, dec, range(2))
        assert_same_boundary(merged, BoundaryComponents.empty())
        assert merged.nbytes == 0 and relabel == {}
    # Emptiness is decided by content: a pickled copy is as empty.
    copy = pickle.loads(pickle.dumps(BoundaryComponents.empty()))
    assert copy is not BoundaryComponents.empty()
    merged, relabel = join_components([copy, copy], dec, range(2))
    assert merged.n_voxels == 0 and relabel == {}


@settings(deadline=None, max_examples=25)
@given(
    st.integers(0, 10_000),
    st.sampled_from([0.3, 0.6, 0.85]),
    st.sampled_from([(0, 2), (2, 4), (4, 8), (0, 4), (0, 8)]),
)
def test_join_region_as_a_range_or_any_collection(seed, t, span):
    """The two comparisons a contiguous range allows against the sorted
    search every other collection gets: same merged boundary, same map."""
    rng = np.random.default_rng(seed)
    field = rng.random((8, 6, 6))
    dec = BlockDecomposition((8, 6, 6), (2, 2, 2))
    parts = leaf_boundaries(dec, field, t)[span[0]:span[1]]
    blocks = list(range(*span))
    by_range = join_components(parts, dec, range(*span))
    for region in (set(blocks), blocks[::-1], tuple(blocks), frozenset(blocks)):
        merged, relabel = join_components(parts, dec, region)
        assert_same_boundary(merged, by_range[0])
        assert relabel == by_range[1]
    # A strided range is not contiguous: it takes the search.
    merged, _ = join_components(parts, dec, range(span[0], span[1], 2))
    assert_same_boundary(merged, join_components(parts, dec, set(blocks[::2]))[0])


@settings(deadline=None, max_examples=40)
@given(
    st.integers(0, 10_000),
    st.sampled_from([0.2, 0.5, 0.8]),
    st.sampled_from([(0, 2), (4, 8), (0, 8)]),
)
def test_join_matches_the_dense_reference(seed, t, span):
    rng = np.random.default_rng(seed)
    field = rng.random((8, 6, 6))
    if seed % 3 == 0:
        field[rng.random(field.shape) < 0.8] = 0.0  # a sparse draw
    dec = BlockDecomposition((8, 6, 6), (2, 2, 2))
    parts = leaf_boundaries(dec, field, t)[span[0]:span[1]]
    merged, relabel = join_components(parts, dec, range(*span))
    ref_merged, ref_relabel = _join_reference(parts, dec, range(*span))
    assert_same_boundary(merged, ref_merged)
    assert relabel == ref_relabel
    # Second round: the merged halves joined again.
    if span == (0, 8):
        halves = [join_components(parts[i:i + 4], dec, range(i, i + 4))[0]
                  for i in (0, 4)]
        top, top_relabel = join_components(halves, dec, range(8))
        ref_top, ref_top_relabel = _join_reference(halves, dec, range(8))
        assert_same_boundary(top, ref_top)
        assert top_relabel == ref_top_relabel
        assert top.n_voxels == 0  # the whole grid has no outer boundary


def _join_reference(parts, decomp, region_blocks):
    """``join_components`` as it stood before the active-set rewrite,
    verbatim: every part through every stage, one axis and one direction
    at a time, membership by ``set`` + sort + search."""
    region = set(region_blocks)
    comp_val = {}
    uf = UnionFind()
    for p in parts:
        for c in range(p.n_components):
            rep = int(p.comp_gid[c])
            uf.add(rep)
            comp_val[rep] = float(p.comp_val[c])

    if parts:
        all_gids = np.concatenate([p.gids for p in parts])
        all_reps = np.concatenate([p.comp_gid[p.comp_idx] for p in parts])
    else:
        all_gids = np.empty(0, np.int64)
        all_reps = np.empty(0, np.int64)
    order = np.argsort(all_gids, kind="stable")
    sg = all_gids[order]
    srep = all_reps[order]
    n_voxels = len(sg)

    nx, ny, nz = decomp.shape
    q = sg // nz
    z = sg - q * nz
    y = q % ny
    x = q // ny
    if n_voxels:
        pair_lo = []
        pair_hi = []
        for coord, size, stride in ((x, nx, ny * nz), (y, ny, nz), (z, nz, 1)):
            idx = (coord < size - 1).nonzero()[0]
            if not len(idx):
                continue
            ug = sg[idx] + stride
            pos = np.searchsorted(sg, ug)
            pos[pos == n_voxels] = 0
            hit = sg[pos] == ug
            if not hit.any():
                continue
            ra = srep[idx[hit]]
            rb = srep[pos[hit]]
            ne = ra != rb
            if ne.any():
                pair_lo.append(np.minimum(ra[ne], rb[ne]))
                pair_hi.append(np.maximum(ra[ne], rb[ne]))
        if pair_lo:
            lo = np.concatenate(pair_lo)
            hi = np.concatenate(pair_hi)
            for a, b in set(zip(lo.tolist(), hi.tolist())):
                uf.union(a, b)

    classes = {}
    for rep in comp_val:
        classes.setdefault(uf.find(rep), []).append(rep)
    new_rep_of = {}
    relabel = {}
    for members in classes.values():
        best = max(members, key=lambda r: (comp_val[r], r))
        for r in members:
            new_rep_of[r] = best
            if r != best:
                relabel[r] = (best, comp_val[best])

    region_sorted = np.sort(np.fromiter(region, dtype=np.int64, count=len(region)))
    n_region = len(region_sorted)
    _, by, bz = decomp.layout
    outer = np.zeros(n_voxels, dtype=bool)
    if n_voxels and not n_region:
        outer = (
            (x > 0) | (x < nx - 1)
            | (y > 0) | (y < ny - 1)
            | (z > 0) | (z < nz - 1)
        )
    elif n_voxels:
        tx, ty, tz = decomp.axis_block_tables()
        cbx, cby, cbz = tx[x], ty[y], tz[z]
        byz = by * bz
        x_term = cbx * byz
        axes = (
            (x, nx, tx, byz, cby * bz + cbz),
            (y, ny, ty, bz, x_term + cbz),
            (z, nz, tz, 1, x_term + cby * bz),
        )
        for coord, size, table, mult, rest in axes:
            for sign in (-1, 1):
                valid = (coord > 0 if sign < 0 else coord < size - 1) & ~outer
                idx = valid.nonzero()[0]
                if not len(idx):
                    continue
                blk = table[coord[idx] + sign] * mult + rest[idx]
                pos = np.searchsorted(region_sorted, blk)
                pos[pos == n_region] = 0
                outside = region_sorted[pos] != blk
                outer[idx[outside]] = True

    if outer.any():
        gids_arr = sg[outer]
        kept_reps = srep[outer]
        uniq, inv = np.unique(kept_reps, return_inverse=True)
        new_uniq = np.fromiter(
            (new_rep_of[int(r)] for r in uniq), dtype=np.int64, count=len(uniq)
        )
        reps_arr = new_uniq[inv]
        comp_gid, comp_idx = np.unique(reps_arr, return_inverse=True)
        comp_vals = np.array(
            [comp_val[new_rep_of.get(int(g), int(g))] for g in comp_gid],
            dtype=np.float64,
        )
        merged = BoundaryComponents(
            gids=gids_arr,
            comp_idx=comp_idx.astype(np.int32),
            comp_gid=comp_gid,
            comp_val=comp_vals,
        )
    else:
        merged = BoundaryComponents.empty()
    return merged, relabel


# ---------------------------------------------------------------------- #
# The sweep and the segmentation against their array-backed bodies
# ---------------------------------------------------------------------- #


def _tree_reference(block, gids, threshold):
    """``block_join_tree`` as it stood before the sweep moved to plain
    lists, verbatim: ``(gids, values, parent, flat)`` of the tree."""
    sx, sy, sz = block.shape
    flat_vals = np.asarray(block, dtype=np.float64).ravel()
    flat_gids = np.asarray(gids, dtype=np.int64).ravel()
    cand = np.nonzero(flat_vals >= threshold)[0]
    m = len(cand)
    vals = flat_vals[cand]
    ids = flat_gids[cand]
    order = np.lexsort((-ids, -vals))
    vals = vals[order]
    ids = ids[order]
    flat_of_slot = cand[order]
    slot_of = np.full(flat_vals.size, -1, dtype=np.int64)
    slot_of[flat_of_slot] = np.arange(m)
    parent = np.full(m, -1, dtype=np.int64)
    uf = np.arange(m, dtype=np.int64)

    def find(i):
        root = i
        while uf[root] != root:
            root = uf[root]
        while uf[i] != root:
            uf[i], i = root, uf[i]
        return int(root)

    lowest = np.arange(m, dtype=np.int64)
    strides = (-sy * sz, sy * sz, -sz, sz, -1, 1)
    for slot in range(m):
        flat = int(flat_of_slot[slot])
        z = flat % sz
        y = (flat // sz) % sy
        x = flat // (sy * sz)
        for k, stride in enumerate(strides):
            if k == 0 and x == 0:
                continue
            if k == 1 and x == sx - 1:
                continue
            if k == 2 and y == 0:
                continue
            if k == 3 and y == sy - 1:
                continue
            if k == 4 and z == 0:
                continue
            if k == 5 and z == sz - 1:
                continue
            u_slot = slot_of[flat + stride]
            if u_slot < 0 or u_slot > slot:
                continue
            ru = find(int(u_slot))
            rv = find(slot)
            if ru == rv:
                continue
            parent[lowest[ru]] = slot
            uf[ru] = rv
            lowest[rv] = slot
    return ids, vals, parent, flat_of_slot


def _segment_reference(gids, values, parent, threshold):
    """``JoinTree.segment`` before the same move, verbatim."""
    n = len(gids)
    labels = np.full(n, -1, dtype=np.int64)
    above = values >= threshold
    if not above.any():
        return labels
    piece_root = np.arange(n, dtype=np.int64)
    for i in range(n - 1, -1, -1):
        if not above[i]:
            continue
        p = parent[i]
        if p >= 0 and above[p]:
            piece_root[i] = piece_root[p]
    rep_of_piece = {}
    for i in range(n):
        if not above[i]:
            continue
        root = int(piece_root[i])
        rep = rep_of_piece.setdefault(root, i)
        labels[i] = gids[rep]
    return labels


@settings(deadline=None, max_examples=30)
@given(
    st.integers(0, 10_000),
    st.sampled_from([(5, 4, 3), (1, 6, 2), (4, 1, 1), (3, 3, 3)]),
    st.sampled_from([-np.inf, 0.3, 0.7, 2.0]),
    st.sampled_from([0.2, 0.5, 0.9]),
)
def test_join_tree_and_segment_match_the_array_backed_bodies(
    seed, shape, build_at, segment_at
):
    from repro.analysis.mergetree import block_join_tree

    rng = np.random.default_rng(seed)
    block = np.round(rng.random(shape), 1)  # eleven levels: ties everywhere
    gids = 1000 + 7 * np.arange(block.size, dtype=np.int64).reshape(shape)
    tree = block_join_tree(block, gids, build_at)
    ids, vals, parent, flat = _tree_reference(block, gids, build_at)
    for got, want in (
        (tree.gids, ids), (tree.values, vals), (tree.parent, parent),
        (tree.flat, flat),
    ):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    tree.validate()
    labels = tree.segment(segment_at)
    want = _segment_reference(ids, vals, parent, segment_at)
    assert labels.dtype == want.dtype and np.array_equal(labels, want)


# ---------------------------------------------------------------------- #
# The shared constants cannot be written through
# ---------------------------------------------------------------------- #


def two_empty_blocks_workload():
    field = np.zeros(SHAPE)
    field[0, 0, 0] = 1.0  # block 0 is active, the rest are not
    return MergeTreeWorkload(field, 8, 0.5, valence=2)


@pytest.mark.parallel
@pytest.mark.parametrize(
    "runtime,kwargs",
    [
        ("serial", {}),
        ("mpi", {"n_procs": 4}),
        ("local", {"n_workers": 2, "mode": "thread"}),
    ],
)
def test_writing_into_one_blocks_output_cannot_change_anothers(runtime, kwargs):
    wl = two_empty_blocks_workload()
    result = wl.run(runtime, **kwargs)
    outputs = {
        b: result.output(wl.graph.segmentation_id(b)).data[1] for b in range(8)
    }
    assert outputs[0].flags.writeable  # an active block owns its labels
    for b in (3, 4):
        assert (outputs[b] == -1).all()
        with pytest.raises(ValueError, match="read-only"):
            outputs[b][0, 0, 0] = 7
    assert (outputs[4] == -1).all()
    # What the library itself hands out is the caller's to write.
    seg = wl.assemble(result)
    seg[:] = 0
    assert np.array_equal(wl.assemble(result), reference_segmentation(wl.field, 0.5))
    assert wl.feature_count(result) == 1


def test_feature_helpers_leave_the_outputs_alone():
    from repro.analysis.mergetree import FeatureTracker, feature_statistics

    wl = two_empty_blocks_workload()
    result = wl.run("serial")
    seg = wl.assemble(result)
    stats = feature_statistics(seg, wl.field)
    assert [f.voxels for f in stats] == [1]
    FeatureTracker().update(0, seg)
    assert np.array_equal(wl.assemble(result), seg)
