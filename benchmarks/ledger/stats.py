"""Order statistics and the host-noise spin."""

from __future__ import annotations

import statistics
import time

median = statistics.median


def quartiles(values) -> tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(values, n=4)``
    gives them (the benchmark contract's spread definition)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-quantile (``0 <= q <= 1``)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summary(values) -> dict:
    """Median, IQR, sample count and the highest percentile that still
    has at least ten samples beyond it (``None`` below twenty samples)."""
    q1, q3 = quartiles(values)
    out = {"n": len(values), "median": median(values), "iqr": q3 - q1}
    if len(values) >= 20:
        q = 1.0 - 10.0 / len(values)
        out["tail_q"] = q
        out["tail"] = percentile(values, q)
    return out


def spin(seconds: float, bursts: int = 5) -> float:
    """Pure-Python loop iterations per second: a ruler for the host
    itself, taken before and after every workload.  The best of a few
    short bursts, so that a momentary hiccup does not read as a slow host."""
    best = 0.0
    for _ in range(bursts):
        n = 0
        t0 = time.perf_counter()
        deadline = t0 + seconds / bursts
        while time.perf_counter() < deadline:
            for _ in range(1000):
                n += 1
        best = max(best, n / (time.perf_counter() - t0))
    return best
