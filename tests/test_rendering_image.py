"""Tests for image fragments, the over operator, and the transfer
functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.rendering.image import (
    ImageFragment,
    composite_ordered,
    over,
    to_rgb8,
    write_ppm,
)
from repro.analysis.rendering.transfer import TransferFunction, fire, grayscale


def frag(rgba_list, depth):
    """Build a 1x1 fragment from [r, g, b, a] and a depth."""
    return ImageFragment(
        np.array([[rgba_list]], dtype=np.float32),
        np.array([[depth]], dtype=np.float32),
    )


class TestFragment:
    def test_blank_is_transparent(self):
        f = ImageFragment.blank((4, 6))
        assert f.shape == (4, 6)
        assert (f.rgba == 0).all()
        assert np.isinf(f.depth).all()

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ImageFragment(np.zeros((4, 4, 3)), np.zeros((4, 4)))
        with pytest.raises(ValueError):
            ImageFragment(np.zeros((4, 4, 4)), np.zeros((4, 5)))

    def test_crop(self):
        f = ImageFragment.blank((6, 6))
        f.rgba[2, 3] = [1, 0, 0, 1]
        c = f.crop(2, 4, 3, 5)
        assert c.shape == (2, 2)
        assert c.rgba[0, 0, 0] == 1.0

    def test_copy_is_deep(self):
        f = ImageFragment.blank((2, 2))
        g = f.copy()
        g.rgba[0, 0, 0] = 1.0
        assert f.rgba[0, 0, 0] == 0.0


class TestOver:
    def test_opaque_front_hides_back(self):
        front = frag([1, 0, 0, 1], 1.0)
        back = frag([0, 1, 0, 1], 2.0)
        out = over(front, back)
        assert np.allclose(out.rgba[0, 0], [1, 0, 0, 1])
        assert out.depth[0, 0] == 1.0

    def test_order_independence_with_depth(self):
        a = frag([0.5, 0, 0, 0.5], 1.0)
        b = frag([0, 0.25, 0, 0.25], 3.0)
        assert np.allclose(over(a, b).rgba, over(b, a).rgba)

    def test_blank_is_identity(self):
        a = frag([0.3, 0.2, 0.1, 0.4], 2.0)
        blank = ImageFragment.blank((1, 1))
        assert np.allclose(over(a, blank).rgba, a.rgba)
        assert np.allclose(over(blank, a).rgba, a.rgba)

    def test_semi_transparent_blend(self):
        front = frag([0.5, 0, 0, 0.5], 1.0)  # premultiplied red, a=.5
        back = frag([0, 1, 0, 1], 2.0)
        out = over(front, back)
        assert np.allclose(out.rgba[0, 0], [0.5, 0.5, 0, 1.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            over(ImageFragment.blank((2, 2)), ImageFragment.blank((3, 3)))

    @settings(deadline=None)
    @given(st.lists(st.tuples(st.floats(0, 1), st.floats(0.1, 10)), min_size=2, max_size=6))
    def test_associative_for_depth_sorted_fragments(self, items):
        """over() folds associatively when fragments arrive in any
        grouping, as long as per-pixel depths are distinct."""
        frags = []
        depth = 1.0
        for alpha, gap in items:
            a = min(alpha, 0.95)
            frags.append(frag([a * 0.8, a * 0.1, a * 0.1, a], depth))
            depth += gap
        left = composite_ordered(frags)
        # Right-to-left fold.
        acc = frags[-1]
        for f in reversed(frags[:-1]):
            acc = over(f, acc)
        assert np.allclose(left.rgba, acc.rgba, atol=1e-5)

    def test_composite_ordered_empty(self):
        with pytest.raises(ValueError):
            composite_ordered([])


class TestOutput:
    def test_to_rgb8_background(self):
        f = ImageFragment.blank((2, 2))
        img = to_rgb8(f, background=(1, 1, 1))
        assert (img == 255).all()

    def test_to_rgb8_opaque_pixel(self):
        f = frag([1, 0, 0, 1], 1.0)
        img = to_rgb8(f)
        assert tuple(img[0, 0]) == (255, 0, 0)

    def test_write_ppm(self, tmp_path):
        img = np.zeros((3, 4, 3), dtype=np.uint8)
        img[..., 1] = 200
        path = tmp_path / "img.ppm"
        write_ppm(str(path), img)
        data = path.read_bytes()
        assert data.startswith(b"P6\n4 3\n255\n")
        assert len(data) == len(b"P6\n4 3\n255\n") + 36

    def test_write_ppm_validation(self, tmp_path):
        with pytest.raises(ValueError):
            write_ppm(str(tmp_path / "x.ppm"), np.zeros((2, 2, 3)))


class TestTransferFunctions:
    def test_fire_range(self):
        tf = fire(0.0, 2.0)
        rgba = tf(np.array([0.0, 1.0, 2.0]))
        assert rgba.shape == (3, 4)
        assert rgba[0, 3] == 0.0  # transparent at the bottom
        assert rgba[2, 3] > 0.5  # opaque at the top

    def test_clipping_outside_range(self):
        tf = grayscale(0.0, 1.0)
        assert np.allclose(tf(np.array([-5.0])), tf(np.array([0.0])))
        assert np.allclose(tf(np.array([7.0])), tf(np.array([1.0])))

    def test_with_range(self):
        tf = grayscale(0, 1).with_range(10, 20)
        assert tf(np.array([15.0]))[0, 0] == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            TransferFunction(np.array([0.0]), np.zeros((1, 4)))
        with pytest.raises(ValueError):
            TransferFunction(np.array([0.0, 1.0]), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            TransferFunction(np.array([1.0, 0.0]), np.zeros((2, 4)))
        with pytest.raises(ValueError):
            grayscale(1.0, 1.0)


class TestOverInvariants:
    @settings(deadline=None, max_examples=40)
    @given(
        st.floats(0, 1), st.floats(0, 1),
        st.floats(0.1, 5), st.floats(0.1, 5),
    )
    def test_alpha_bounded_and_monotone(self, a1, a2, d1, d2):
        """Composited alpha stays in [0,1] and never drops below the
        front fragment's alpha."""
        f1 = frag([a1 * 0.5, a1 * 0.3, a1 * 0.2, a1], d1)
        f2 = frag([a2 * 0.2, a2 * 0.5, a2 * 0.3, a2], d2)
        out = over(f1, f2)
        alpha = float(out.rgba[0, 0, 3])
        assert -1e-6 <= alpha <= 1.0 + 1e-6
        front_alpha = a1 if d1 <= d2 else a2
        assert alpha >= front_alpha - 1e-6

    @settings(deadline=None, max_examples=30)
    @given(st.floats(0, 1), st.floats(0.1, 5))
    def test_over_with_self_converges(self, a, d):
        """Repeated compositing of the same semi-transparent layer
        approaches full opacity without overshooting."""
        f = frag([a * 0.5, a * 0.25, a * 0.25, a], d)
        acc = f
        prev_alpha = float(acc.rgba[0, 0, 3])
        for _ in range(6):
            acc = over(acc, f)
            alpha = float(acc.rgba[0, 0, 3])
            assert alpha >= prev_alpha - 1e-6
            assert alpha <= 1.0 + 1e-5
            prev_alpha = alpha


def _over_reference(a: ImageFragment, b: ImageFragment) -> ImageFragment:
    """``over`` as it stood before the in-place rewrite, kept verbatim as
    the oracle: seven RGBA-sized temporaries, same values."""
    if a.shape != b.shape:
        raise ValueError(f"fragment shapes differ: {a.shape} vs {b.shape}")
    a_front = a.depth <= b.depth
    front_rgba = np.where(a_front[..., None], a.rgba, b.rgba)
    back_rgba = np.where(a_front[..., None], b.rgba, a.rgba)
    out = front_rgba + (1.0 - front_rgba[..., 3:4]) * back_rgba
    depth = np.minimum(a.depth, b.depth)
    return ImageFragment(out.astype(np.float32), depth.astype(np.float32))


#: Depths that exercise every branch of the compare: ties, empty (+inf)
#: on one or both sides, and nan (which ``np.minimum`` propagates from
#: either side while ``<=`` is false, so the *other* fragment is in front).
_DEPTHS = st.sampled_from([0.0, 1.0, 1.0, 2.5, np.inf, np.nan])


@st.composite
def _fragment_pairs(draw):
    h = draw(st.integers(0, 4))
    w = draw(st.integers(1, 5))
    pair = []
    for _ in range(2):
        dtype = draw(st.sampled_from([np.float32, np.float64]))
        rgba = draw(st.lists(st.floats(0, 1), min_size=h * w * 4,
                             max_size=h * w * 4))
        depth = draw(st.lists(_DEPTHS, min_size=h * w, max_size=h * w))
        pair.append(ImageFragment(
            np.array(rgba, dtype=dtype).reshape(h, w, 4),
            np.array(depth, dtype=dtype).reshape(h, w),
        ))
    return pair


class TestOverMatchesItsReference:
    @settings(deadline=None, max_examples=200)
    @given(_fragment_pairs())
    def test_bitwise_float32_out_and_inputs_untouched(self, pair):
        a, b = pair
        before = [x.copy() for x in (a.rgba, a.depth, b.rgba, b.depth)]
        out, ref = over(a, b), _over_reference(a, b)
        assert out.rgba.dtype == out.depth.dtype == np.float32
        assert out.rgba.tobytes() == ref.rgba.tobytes()
        assert out.depth.tobytes() == ref.depth.tobytes()
        for arr, was in zip((a.rgba, a.depth, b.rgba, b.depth), before):
            assert arr.tobytes() == was.tobytes()
            assert not np.shares_memory(out.rgba, arr)
            assert not np.shares_memory(out.depth, arr)

    def test_nan_depth_propagates_from_either_side(self):
        a, b = frag([0.2, 0, 0, 0.2], np.nan), frag([0, 0.4, 0, 0.4], 1.0)
        for x, y in ((a, b), (b, a)):
            out = over(x, y)
            assert np.isnan(out.depth[0, 0])
            assert out == _over_reference(x, y)


class TestCropOwnsItsArrays:
    """``np.ascontiguousarray`` handed back a *view* for every full-width
    row split — every even binary-swap stage."""

    @pytest.mark.parametrize("rect", [
        (0, 2, 0, 6),  # full-width rows: was a view of the source
        (0, 4, 0, 3),  # columns
        (0, 4, 0, 6),  # the whole fragment
        (2, 2, 0, 6),  # zero area
        (1, 3, 6, 6),
    ])
    def test_crop_is_an_owning_copy(self, rect):
        rng = np.random.default_rng(7)
        f = ImageFragment(
            rng.random((4, 6, 4), dtype=np.float32),
            rng.random((4, 6), dtype=np.float32),
        )
        kept = f.copy()
        y0, y1, x0, x1 = rect
        t = f.crop(*rect)
        assert t.shape == (y1 - y0, x1 - x0)
        assert np.array_equal(t.rgba, f.rgba[y0:y1, x0:x1])
        assert np.array_equal(t.depth, f.depth[y0:y1, x0:x1])
        for arr in (t.rgba, t.depth):
            assert arr.base is None and arr.flags.c_contiguous
            assert not np.shares_memory(arr, f.rgba)
            assert not np.shares_memory(arr, f.depth)
        t.rgba[:] = 7
        t.depth[:] = 7
        assert f == kept

    def test_library_built_fragments_skip_revalidation_only(self):
        # The public constructor still validates for outside callers...
        with pytest.raises(ValueError):
            ImageFragment(np.zeros((2, 2, 4)), np.zeros((3, 2)))
        # ...and what the library builds is a plain, equal fragment.
        f = ImageFragment.blank((2, 3))
        assert f.copy() == f and f.crop(0, 2, 0, 3) == f
        assert type(over(f, f)) is ImageFragment
