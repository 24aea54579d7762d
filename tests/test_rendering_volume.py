"""Tests for the raycaster: cameras, block/full render equivalence."""

import numpy as np
import pytest

from repro.analysis.mergetree.blocks import BlockDecomposition
from repro.analysis.rendering.image import ImageFragment, composite_ordered, over
from repro.analysis.rendering.transfer import fire, grayscale
from repro.analysis.rendering.volume import (
    OrthoCamera,
    _footprint,
    render_block,
    render_volume,
)


class TestCamera:
    def test_axis_validation(self):
        with pytest.raises(ValueError):
            OrthoCamera((8, 8), axis="w")
        with pytest.raises(ValueError):
            OrthoCamera((0, 8))

    def test_plane_axes(self):
        assert OrthoCamera((4, 4), axis="z").plane_axes() == (0, 1)
        assert OrthoCamera((4, 4), axis="x").plane_axes() == (1, 2)
        assert OrthoCamera((4, 4), axis="y").plane_axes() == (0, 2)

    def test_pixel_maps_cover_grid(self):
        cam = OrthoCamera((16, 8), axis="z")
        rows, cols = cam.pixel_maps((8, 8, 8))
        assert rows.min() == 0 and rows.max() == 7
        assert cols.min() == 0 and cols.max() == 7
        assert len(rows) == 16 and len(cols) == 8


class TestRenderVolume:
    def test_empty_volume_is_transparent(self):
        cam = OrthoCamera((8, 8))
        tf = grayscale(0, 1)
        frag = render_volume(np.zeros((4, 4, 4)), cam, tf)
        assert (frag.rgba[..., 3] == 0).all()

    def test_opaque_volume_covers_image(self):
        cam = OrthoCamera((8, 8))
        tf = grayscale(0, 1, opacity=1.0)
        frag = render_volume(np.ones((4, 4, 4)), cam, tf)
        assert (frag.rgba[..., 3] > 0.9).all()
        assert (frag.depth == 0).all()

    def test_alpha_monotone_in_depth_extent(self):
        cam = OrthoCamera((4, 4))
        tf = grayscale(0, 1, opacity=0.3)
        thin = render_volume(np.full((4, 4, 2), 0.5), cam, tf)
        thick = render_volume(np.full((4, 4, 8), 0.5), cam, tf)
        assert (thick.rgba[..., 3] > thin.rgba[..., 3]).all()

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_all_view_axes_work(self, axis):
        rng = np.random.default_rng(0)
        field = rng.random((6, 7, 8))
        cam = OrthoCamera((10, 10), axis=axis)
        frag = render_volume(field, cam, fire(0, 1))
        assert frag.shape == (10, 10)
        assert frag.rgba[..., 3].max() > 0


class TestBlockCompositingEquivalence:
    @pytest.mark.parametrize("layout", [(2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 2)])
    def test_composited_blocks_equal_full_render(self, layout):
        """The core algebra of sort-last rendering: rendering blocks
        separately and compositing by depth equals one full render."""
        rng = np.random.default_rng(1)
        field = rng.random((8, 8, 8))
        cam = OrthoCamera((12, 12), axis="z")
        tf = fire(0, 1)
        full = render_volume(field, cam, tf)
        dec = BlockDecomposition((8, 8, 8), layout)
        frags = [
            render_block(
                dec.extract_block(field, b),
                dec.block_bounds(b),
                field.shape,
                cam,
                tf,
            )
            for b in range(dec.n_blocks)
        ]
        combined = composite_ordered(frags)
        assert np.allclose(combined.rgba, full.rgba, atol=1e-5)

    def test_depth_orders_blocks_not_composite_order(self):
        """Compositing back-block-first must still put the front block
        in front (per-pixel depth does the sorting)."""
        field = np.zeros((4, 4, 8))
        field[:, :, :4] = 1.0  # front half opaque-ish
        field[:, :, 4:] = 0.5
        cam = OrthoCamera((4, 4), axis="z")
        tf = grayscale(0, 1, opacity=0.9)
        dec = BlockDecomposition((4, 4, 8), (1, 1, 2))
        f0 = render_block(dec.extract_block(field, 0), dec.block_bounds(0), field.shape, cam, tf)
        f1 = render_block(dec.extract_block(field, 1), dec.block_bounds(1), field.shape, cam, tf)
        assert np.allclose(over(f0, f1).rgba, over(f1, f0).rgba)

    def test_footprint_restricted_to_block(self):
        field = np.ones((8, 8, 8))
        cam = OrthoCamera((8, 8), axis="z")
        tf = grayscale(0, 1, opacity=1.0)
        dec = BlockDecomposition((8, 8, 8), (2, 1, 1))
        frag = render_block(
            dec.extract_block(field, 0), dec.block_bounds(0), field.shape, cam, tf
        )
        assert (frag.rgba[:4, :, 3] > 0).all()
        assert (frag.rgba[4:, :, 3] == 0).all()


def _render_block_reference(block, bounds, grid_shape, camera, tf, step_scale=1.0):
    """``render_block`` as it stood before the footprint table and the
    single transfer-function pass, kept verbatim as the oracle."""
    va = camera.view_axis
    ra, ca = camera.plane_axes()
    rows, cols = camera.pixel_maps(grid_shape)
    (rlo, rhi) = bounds[ra]
    (clo, chi) = bounds[ca]
    row_sel = np.nonzero((rows >= rlo) & (rows < rhi))[0]
    col_sel = np.nonzero((cols >= clo) & (cols < chi))[0]
    h, w = camera.image_shape
    fragment = ImageFragment.blank((h, w))
    if len(row_sel) == 0 or len(col_sel) == 0:
        return fragment
    perm = (ra, ca, va)
    if perm == (0, 1, 2):
        sub = block
    else:
        sub = np.ascontiguousarray(np.transpose(block, perm))
    r_idx = rows[row_sel] - rlo
    c_idx = cols[col_sel] - clo
    slab = sub[np.ix_(r_idx, c_idx)]
    depth_extent = slab.shape[2]
    n_steps = max(1, int(round(depth_extent / step_scale)))
    sample_z = np.minimum(
        (np.arange(n_steps) * depth_extent) // n_steps, depth_extent - 1
    )
    color = np.zeros(slab.shape[:2] + (3,), dtype=np.float32)
    alpha = np.zeros(slab.shape[:2], dtype=np.float32)
    for z in sample_z:
        rgba = tf(slab[:, :, z])
        a = np.clip(rgba[..., 3] * step_scale, 0.0, 1.0)
        trans = 1.0 - alpha
        color += (trans * a)[..., None] * rgba[..., :3]
        alpha += trans * a
    entry = float(bounds[va][0])
    rgba_block = np.concatenate([color, alpha[..., None]], axis=2)
    fragment.rgba[np.ix_(row_sel, col_sel)] = rgba_block
    covered = alpha > 0.0
    block_depth = np.where(covered, np.float32(entry), np.float32(np.inf))
    fragment.depth[np.ix_(row_sel, col_sel)] = block_depth
    return fragment


class TestFootprintTable:
    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    @pytest.mark.parametrize("step_scale", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("image_shape", [(9, 7), (3, 20)])
    def test_bitwise_equal_to_the_reference(self, axis, step_scale, image_shape):
        field = np.random.default_rng(11).random((10, 9, 8))
        tf = fire(0.0, 1.0)
        cam = OrthoCamera(image_shape, axis=axis)
        dec = BlockDecomposition(field.shape, (2, 3, 2))
        for b in range(dec.n_blocks):
            args = (dec.extract_block(field, b), dec.block_bounds(b), field.shape, cam, tf)
            got = render_block(*args, step_scale)
            ref = _render_block_reference(*args, step_scale)
            assert got.rgba.tobytes() == ref.rgba.tobytes()
            assert got.depth.tobytes() == ref.depth.tobytes()

    def test_sequences_other_than_tuples_still_work(self):
        field = np.ones((4, 4, 4))
        cam = OrthoCamera([6, 5], axis="z")
        frag = render_block(
            field, [[0, 4], [0, 4], [0, 4]], [4, 4, 4], cam, grayscale(0, 2)
        )
        assert frag == render_volume(field, OrthoCamera((6, 5)), grayscale(0, 2))

    def test_shared_index_arrays_are_read_only_and_fragments_are_not_shared(self):
        """Every block with the same footprint — and, on ``local``, every
        thread — is handed the same cached index arrays."""
        field = np.random.default_rng(5).random((8, 8, 8))
        cam = OrthoCamera((8, 8), axis="z")
        tf = grayscale(0, 1)
        dec = BlockDecomposition(field.shape, (2, 1, 2))
        b0, b3 = dec.block_bounds(0), dec.block_bounds(3)
        entry = _footprint(cam, field.shape, b0[0], b0[1])
        assert entry is _footprint(cam, field.shape, b0[0], b0[1])
        for pair in entry:
            for arr in pair:
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[...] = 0
        # Another footprint or another camera: another entry.
        assert (b3[0], b3[1]) != (b0[0], b0[1])
        assert _footprint(cam, field.shape, b3[0], b3[1]) is not entry
        assert _footprint(OrthoCamera((8, 6)), field.shape, b0[0], b0[1]) is not entry
        # A block outside the image's sampled rows has no footprint at all.
        assert _footprint(OrthoCamera((1, 1)), field.shape, (4, 8), (0, 8)) is None

        first = render_block(dec.extract_block(field, 0), b0, field.shape, cam, tf)
        again = render_block(dec.extract_block(field, 0), b0, field.shape, cam, tf)
        assert first == again
        for x in (first.rgba, first.depth):
            for y in (again.rgba, again.depth):
                assert not np.shares_memory(x, y)
        first.rgba[:] = 9  # writable, and no other render sees it
        assert render_block(dec.extract_block(field, 0), b0, field.shape, cam, tf) == again
