"""Tests for the registration use case: correlation, synthetic volumes,
and the end-to-end dataflow."""

import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from repro.analysis.registration import (
    OffsetEstimate,
    RegistrationWorkload,
    SyntheticVolumeGrid,
    VolumeGridSpec,
    consensus_offset,
    ncc_shift,
)
from repro.runtimes import SerialController

from tests.conftest import all_controllers


def smooth(shape, seed, sigma=2.5):
    rng = np.random.default_rng(seed)
    return ndimage.gaussian_filter(rng.standard_normal(shape), sigma)


class TestNccShift:
    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 1000), st.integers(-3, 3), st.integers(-3, 3), st.integers(-2, 2))
    def test_recovers_known_shift(self, seed, tx, ty, tz):
        base = smooth((30, 30, 24), seed)
        a = base[5:20, 5:20, 5:17]
        b = base[5 + tx : 20 + tx, 5 + ty : 20 + ty, 5 + tz : 17 + tz]
        est = ncc_shift(a, b, max_shift=4)
        assert est.shift == (tx, ty, tz)
        assert est.confidence > 0.8

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ncc_shift(np.zeros((4, 4, 4)), np.zeros((4, 4, 5)), 1)

    def test_max_shift_too_large(self):
        with pytest.raises(ValueError):
            ncc_shift(np.zeros((3, 3, 3)), np.zeros((3, 3, 3)), 3)

    def test_flat_input_gives_origin(self):
        est = ncc_shift(np.zeros((6, 6, 6)), np.zeros((6, 6, 6)), 2)
        assert est.shift == (0, 0, 0)


def _ncc_shift_reference(a, b, max_shift, scores=None):
    """The shift-by-shift search ``ncc_shift`` ran before it became one
    FFT cross-correlation plus prefix sums, kept verbatim as the oracle
    (``scores``, when given, collects every evaluated coefficient)."""
    if a.shape != b.shape:
        raise ValueError(f"shapes differ: {a.shape} vs {b.shape}")
    w = int(max_shift)
    if w < 0 or all(n <= w for n in a.shape):
        raise ValueError(
            f"max_shift {max_shift} too large for window shape {a.shape}"
        )
    best = OffsetEstimate(shift=(0, 0, 0), confidence=-2.0)
    # Clamp the window per axis so thin windows (e.g. shallow Z slabs)
    # still search their feasible range.
    per_axis = [min(w, n - 1) for n in a.shape]
    for tx in range(-per_axis[0], per_axis[0] + 1):
        for ty in range(-per_axis[1], per_axis[1] + 1):
            for tz in range(-per_axis[2], per_axis[2] + 1):
                sa, sb = [], []
                ok = True
                for t, n in zip((tx, ty, tz), a.shape):
                    lo, hi = max(0, -t), n - max(0, t)
                    if hi <= lo:
                        ok = False
                        break
                    sa.append(slice(lo + t, hi + t))
                    sb.append(slice(lo, hi))
                if not ok:
                    continue
                va = a[tuple(sa)]
                vb = b[tuple(sb)]
                da = va - va.mean()
                db = vb - vb.mean()
                denom = float(np.sqrt((da * da).sum() * (db * db).sum()))
                if denom <= 0:
                    continue
                ncc = float((da * db).sum() / denom)
                if scores is not None:
                    scores.append(ncc)
                if ncc > best.confidence:
                    best = OffsetEstimate(shift=(tx, ty, tz), confidence=ncc)
    if best.confidence < -1.5:
        # Degenerate (constant) windows carry no signal: report the null
        # shift with zero confidence so the consensus step downweights it.
        return OffsetEstimate(shift=(0, 0, 0), confidence=0.0)
    return OffsetEstimate(
        shift=best.shift, confidence=float(np.clip(best.confidence, 0.0, 1.0))
    )


NULL = OffsetEstimate(shift=(0, 0, 0), confidence=0.0)

#: Python + C calls inside one ``ncc_shift``, whatever the search radius:
#: 32,833 at ``max_shift=4`` as a loop over shifts, 304 as array
#: operations.  Landed + 10 %.
NCC_CALLS_CEILING = 334


class TestNccShiftAgainstReference:
    @settings(deadline=None, max_examples=150)
    @given(
        st.tuples(st.integers(1, 10), st.integers(1, 10), st.integers(1, 10)),
        st.integers(0, 5),
        st.integers(0, 10_000),
        st.sampled_from(["planted", "smooth", "noise"]),
        st.booleans(),
    )
    def test_same_shift_and_confidence(self, shape, w, seed, kind, single):
        assume(any(n > w for n in shape))
        rng = np.random.default_rng(seed)
        if kind == "planted":
            base = smooth(tuple(n + 4 for n in shape), seed, sigma=1.5)
            box = lambda t: tuple(slice(2 + ti, 2 + ti + n) for ti, n in zip(t, shape))
            a, b = base[box((0, 0, 0))], base[box(rng.integers(-2, 3, 3))]
        elif kind == "smooth":
            a, b = smooth(shape, seed, sigma=1.0), smooth(shape, seed + 1, sigma=1.0)
        else:
            a, b = rng.standard_normal(shape), rng.standard_normal(shape)
        if single:
            # The kernel must widen float32 itself: the oracle gets the
            # same values already widened.
            a, b = a.astype(np.float32), b.astype(np.float32)
        scores = []
        want = _ncc_shift_reference(
            a.astype(np.float64), b.astype(np.float64), w, scores
        )
        # A tie at round-off is implementation-defined in both.
        top = sorted(scores)[-2:]
        assume(len(top) < 2 or top[1] - top[0] > 1e-9)
        got = ncc_shift(a, b, w)
        assert got.shift == want.shift
        assert abs(got.confidence - want.confidence) <= 1e-9

    @pytest.mark.parametrize("shape", [(2, 9, 9), (1, 5, 7), (8, 24, 8)])
    def test_thin_windows(self, shape):
        a, b = smooth(shape, 1, sigma=1.0), smooth(shape, 2, sigma=1.0)
        want = _ncc_shift_reference(a, b, 4)
        got = ncc_shift(a, b, 4)
        assert got.shift == want.shift
        assert got.confidence == pytest.approx(want.confidence, abs=1e-12)

    @pytest.mark.parametrize("value", [0.0, 3.0, 0.1])
    def test_constant_windows_carry_no_signal(self, value):
        flat = np.full((6, 6, 6), value)
        assert ncc_shift(flat, flat, 2) == NULL
        assert ncc_shift(flat, smooth((6, 6, 6), 1), 2) == NULL

    def test_zero_search_radius(self):
        a, b = smooth((6, 7, 8), 3), smooth((6, 7, 8), 4)
        got = ncc_shift(a, b, 0)
        assert got.shift == (0, 0, 0)
        assert got.confidence == pytest.approx(
            max(0.0, np.corrcoef(a.ravel(), b.ravel())[0, 1]), abs=1e-12
        )

    def test_gain_and_offset_do_not_move_the_estimate(self):
        base = smooth((16, 16, 12), 9)
        a, b = base[2:12, 2:12, 2:10], base[3:13, 1:11, 4:12]
        want = ncc_shift(a, b, 3)
        assert want.shift == (1, -1, 2)
        for gain, offset in [(1e-6, 0.0), (1e6, -3e5), (2.5, 1e3)]:
            got = ncc_shift(a, gain * b + offset, 3)
            assert got.shift == want.shift
            assert got.confidence == pytest.approx(want.confidence, abs=1e-9)

    def test_errors_match_the_reference(self):
        z = np.zeros((3, 3, 3))
        for fn in (ncc_shift, _ncc_shift_reference):
            with pytest.raises(ValueError, match="shapes differ"):
                fn(z, np.zeros((3, 3, 4)), 1)
            with pytest.raises(ValueError, match="too large"):
                fn(z, z, 3)
            with pytest.raises(ValueError, match="too large"):
                fn(z, z, -1)

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("level", [0.1, 1.0, 255.0])
    def test_constant_overlap_never_wins(self, seed, level):
        """Background against background: a shift whose overlap is
        constant on both sides used to score round-off over round-off
        (``va.mean()`` of a constant is an ulp off, so the old
        ``denom <= 0`` never fired) and win with confidence 1.0."""
        r = np.random.default_rng(seed)
        a = r.standard_normal((6, 6, 6)) * 0.01
        b = r.standard_normal((6, 6, 6)) * 0.01
        a[4:] = level
        b[:2] = level
        planted = {(4, ty, tz) for ty in range(-4, 5) for tz in range(-4, 5)}
        got = ncc_shift(a, b, 4)
        assert got.shift not in planted
        assert got.confidence < 1.0

    def test_the_reference_has_the_constant_overlap_bug(self):
        r = np.random.default_rng(3)
        a = r.standard_normal((6, 6, 6)) * 0.01
        b = r.standard_normal((6, 6, 6)) * 0.01
        a[4:] = 0.1
        b[:2] = 0.1
        assert _ncc_shift_reference(a, b, 4) == OffsetEstimate((4, -4, -3), 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_gives_the_null_estimate(self, bad):
        a, b = smooth((6, 6, 6), 5), smooth((6, 6, 6), 6)
        poisoned = a.copy()
        poisoned[1, 2, 3] = bad
        assert ncc_shift(poisoned, b, 2) == NULL
        assert ncc_shift(a, poisoned, 2) == NULL
        assert ncc_shift(poisoned, poisoned, 2) == NULL

    def test_call_count_is_flat_in_the_search_radius(self):
        """Wall-clock-free perf guard: the search is a constant number of
        array operations, not one pass per shift."""
        a, b = smooth((8, 24, 8), 7), smooth((8, 24, 8), 8)

        def calls(w):
            n = 0

            def count(frame, event, arg):
                nonlocal n
                n += event in ("call", "c_call")

            sys.setprofile(count)
            try:
                ncc_shift(a, b, w)
            finally:
                sys.setprofile(None)
            return n

        assert calls(2) == calls(4) <= NCC_CALLS_CEILING


class TestConsensus:
    def test_majority_wins(self):
        ests = [
            OffsetEstimate((1, 0, 0), 0.9),
            OffsetEstimate((1, 0, 0), 0.8),
            OffsetEstimate((5, 5, 5), 0.1),
        ]
        assert consensus_offset(ests).shift == (1, 0, 0)

    def test_single(self):
        assert consensus_offset([OffsetEstimate((2, 3, 4), 0.5)]).shift == (2, 3, 4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            consensus_offset([])


class TestSyntheticGrid:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            VolumeGridSpec(gx=1, gy=1)
        with pytest.raises(ValueError):
            VolumeGridSpec(overlap=0.6)
        with pytest.raises(ValueError):
            VolumeGridSpec(vol_shape=(10, 10, 10), overlap=0.15, max_jitter=3)

    def test_anchor_volume_unjittered(self):
        grid = SyntheticVolumeGrid(VolumeGridSpec(gx=2, gy=2, seed=3))
        assert (grid.true_offsets[0] == 0).all()

    def test_jitter_bounded(self):
        spec = VolumeGridSpec(gx=3, gy=3, max_jitter=2, seed=4)
        grid = SyntheticVolumeGrid(spec)
        assert np.abs(grid.true_offsets).max() <= 2

    def test_volume_shapes(self):
        spec = VolumeGridSpec(gx=2, gy=3, vol_shape=(20, 24, 12), max_jitter=1, overlap=0.2)
        grid = SyntheticVolumeGrid(spec)
        assert grid.n_volumes == 6
        assert all(v.shape == (20, 24, 12) for v in grid.volumes)

    def test_overlaps_share_content(self):
        """Adjacent volumes' overlap regions correlate strongly."""
        spec = VolumeGridSpec(gx=2, gy=1, vol_shape=(32, 32, 16), max_jitter=0, noise=0.0, seed=5)
        grid = SyntheticVolumeGrid(spec)
        ov = spec.overlap_x
        a = grid.volume(0)[-ov:]
        b = grid.volume(1)[:ov]
        assert np.allclose(a, b)

    def test_pairwise_ground_truth(self):
        grid = SyntheticVolumeGrid(VolumeGridSpec(gx=2, gy=2, seed=6))
        d = grid.true_pairwise_offset(0, 3)
        assert np.array_equal(d, grid.true_offsets[3] - grid.true_offsets[0])


class TestWorkload:
    def test_all_controllers_recover_ground_truth(self):
        grid = SyntheticVolumeGrid(
            VolumeGridSpec(gx=3, gy=2, vol_shape=(24, 24, 16), max_jitter=1, seed=8)
        )
        wl = RegistrationWorkload(grid, slabs=2)
        for c in all_controllers(4):
            res = wl.run(c)
            assert wl.verify(res), type(c).__name__

    @pytest.mark.parametrize("slabs", [1, 2, 4])
    def test_slab_counts(self, slabs):
        grid = SyntheticVolumeGrid(
            VolumeGridSpec(gx=2, gy=2, vol_shape=(24, 24, 16), max_jitter=1, seed=10)
        )
        wl = RegistrationWorkload(grid, slabs=slabs)
        assert wl.verify(wl.run(SerialController()))

    def test_paper_scale_grid(self):
        """The paper's 5x5 grid (scaled-down volumes)."""
        grid = SyntheticVolumeGrid(
            VolumeGridSpec(gx=5, gy=5, vol_shape=(24, 24, 12), max_jitter=1, seed=12)
        )
        wl = RegistrationWorkload(grid, slabs=2)
        assert wl.verify(wl.run(SerialController()))

    def test_invalid_slabs(self):
        grid = SyntheticVolumeGrid(VolumeGridSpec(gx=2, gy=1, seed=1))
        with pytest.raises(ValueError):
            RegistrationWorkload(grid, slabs=0)

    def test_sim_scaling_increases_time(self):
        from repro.runtimes import MPIController

        grid = SyntheticVolumeGrid(
            VolumeGridSpec(gx=2, gy=2, vol_shape=(24, 24, 16), max_jitter=1, seed=13)
        )
        base = RegistrationWorkload(grid, slabs=1)
        big = RegistrationWorkload(grid, slabs=1, sim_vol_shape=(1024, 1024, 1024))
        r_base = base.run(MPIController(4, cost_model=base.cost_model()))
        r_big = big.run(MPIController(4, cost_model=big.cost_model()))
        assert r_big.makespan > r_base.makespan
        assert wl_verify_both(base, r_base) and wl_verify_both(big, r_big)


def wl_verify_both(wl, res):
    return wl.verify(res)
