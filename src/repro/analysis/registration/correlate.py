"""Offset estimation between overlapping sub-volumes.

Normalized cross-correlation over the valid overlap of every shift in a
small search window, taken from one zero-padded FFT and prefix sums.  It
is invariant to the gain and offset changes between microscope tiles and
costs ``O(N log N)`` — this is the ``correlation`` task of the paper's
Fig. 8 dataflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OffsetEstimate:
    """Result of one pairwise correlation.

    Attributes:
        shift: the integer shift (3-vector) such that
            ``b(x) ~= a(x + shift)``.
        confidence: the best normalized correlation coefficient, clipped
            to [0, 1]; higher is a more trustworthy match.
    """

    shift: tuple[int, int, int]
    confidence: float


def _box_sums(x: np.ndarray, lo: list[np.ndarray], hi: list[np.ndarray]):
    """``(sum x, sum x*x)`` over every box ``[lo_i[j_i], hi_i[j_i])`` of a
    3-D array, from prefix sums by inclusion-exclusion one axis at a time."""
    p = np.zeros((2,) + tuple(n + 1 for n in x.shape))
    p[:, 1:, 1:, 1:] = np.stack((x, x * x)).cumsum(1).cumsum(2).cumsum(3)
    for axis in range(3):
        p = p.take(hi[axis], axis + 1) - p.take(lo[axis], axis + 1)
    return p[0], p[1]


def ncc_shift(a: np.ndarray, b: np.ndarray, max_shift: int) -> OffsetEstimate:
    """Exact normalized cross-correlation search over a small shift window.

    Evaluates, for every integer shift ``t`` with ``|t_i| <= max_shift``,
    the normalized correlation coefficient between the *valid* (non-
    wrapping) overlap of ``a`` shifted by ``t`` against ``b``, and returns
    the best shift (the lexicographically first on a tie):
    ``b(x) ~= a(x + t)``.

    All ``(2*max_shift+1)**3`` shifts come out of a constant number of
    array operations: the cross term of every shift from one FFT
    cross-correlation zero-padded to ``n_i + w_i`` per axis, the sums and
    sums of squares of every overlap from 3-D prefix sums.  The padding
    leaves nothing to wrap around for ``|t_i| <= w_i``, so there is no
    circular bias, which matters for the small, smooth overlap windows of
    microscopy tiles, and the cost is the ``N log N`` the analytic model
    charges.

    An overlap whose variance is below ``1e-12`` of its whole window's
    (constant background, saturated voxels, a single voxel) carries no
    signal and is skipped; a non-finite voxel disqualifies every overlap.

    Raises:
        ValueError: on shape mismatch, or when ``max_shift`` leaves no
            valid overlap.
    """
    if a.shape != b.shape:
        raise ValueError(f"shapes differ: {a.shape} vs {b.shape}")
    w = int(max_shift)
    if w < 0 or all(n <= w for n in a.shape):
        raise ValueError(
            f"max_shift {max_shift} too large for window shape {a.shape}"
        )
    shape = a.shape
    # Clamp the window per axis so thin windows (e.g. shallow Z slabs)
    # still search their feasible range.
    reach = tuple(min(w, n - 1) for n in shape)
    shifts = [np.arange(-r, r + 1) for r in reach]
    padded = tuple(n + r for n, r in zip(shape, reach))
    axes = (0, 1, 2)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        # NCC ignores an offset; centring keeps the sums well-conditioned.
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        a = a - a.mean()
        b = b - b.mean()
        # cross[t mod padded] = sum of a(x + t) * b(x) over the overlap.
        cross = np.fft.irfftn(
            np.fft.rfftn(a, padded, axes) * np.conj(np.fft.rfftn(b, padded, axes)),
            padded,
            axes,
        )
        s_ab = cross[np.ix_(*(t % n for t, n in zip(shifts, padded)))]
        # Per axis the overlap is a[max(t, 0) : n + min(t, 0)] against
        # b[max(-t, 0) : n - max(t, 0)], which is a's box of the shift -t.
        lo = [np.maximum(t, 0) for t in shifts]
        hi = [n + np.minimum(t, 0) for t, n in zip(shifts, shape)]
        s_a, s_aa = _box_sums(a, lo, hi)
        s_b, s_bb = _box_sums(b, [i[::-1] for i in lo], [i[::-1] for i in hi])
        mx, my, mz = np.ix_(*(h - l for l, h in zip(lo, hi)))
        m = mx * my * mz
        var_a = s_aa - s_a * s_a / m
        var_b = s_bb - s_b * s_b / m
        # Relative to the whole window (index ``reach`` is the zero
        # shift): round-off over a constant overlap is ~1e-16 of it, never
        # exactly zero.
        ok = (var_a > 1e-12 * s_aa[reach]) & (var_b > 1e-12 * s_bb[reach])
        denom = np.sqrt(var_a * var_b)
        ok &= denom > 0
        ncc = np.where(ok, (s_ab - s_a * s_b / m) / denom, -np.inf)
    if not ok.any():
        # Degenerate (constant) windows carry no signal: report the null
        # shift with zero confidence so the consensus step downweights it.
        return OffsetEstimate(shift=(0, 0, 0), confidence=0.0)
    best = np.unravel_index(np.argmax(ncc), ncc.shape)
    return OffsetEstimate(
        shift=tuple(int(t[i]) for t, i in zip(shifts, best)),
        confidence=float(np.clip(ncc[best], 0.0, 1.0)),
    )


def consensus_offset(estimates: list[OffsetEstimate]) -> OffsetEstimate:
    """Combine per-slab estimates of the same pair (the ``sort/evaluate``
    step of the dataflow): confidence-weighted per-axis median.

    Raises:
        ValueError: on an empty list.
    """
    if not estimates:
        raise ValueError("no estimates to combine")
    shifts = np.array([e.shift for e in estimates], dtype=np.float64)
    weights = np.array([max(e.confidence, 1e-9) for e in estimates])
    out = []
    order_w = weights / weights.sum()
    for axis in range(shifts.shape[1]):
        vals = shifts[:, axis]
        idx = np.argsort(vals)
        cum = np.cumsum(order_w[idx])
        pos = int(np.searchsorted(cum, 0.5))
        out.append(int(vals[idx[min(pos, len(vals) - 1)]]))
    return OffsetEstimate(shift=tuple(out), confidence=float(weights.max()))
