"""Always-on, low-overhead run metrics.

Unlike the event stream (opt-in, allocation per event), the metrics
registry is collected on *every* run: its instruments are a handful of
attribute updates per task, cheap enough to leave on at 32k simulated
procs.  Controllers snapshot the registry into
:attr:`~repro.runtimes.result.RunResult.metrics` at the end of a run.

Instruments:

* :class:`Counter` — monotonically increasing integer/float.
* :class:`Gauge` — last-written value (set at snapshot time for derived
  quantities like utilization).
* :class:`Histogram` — power-of-two bucketed distribution with exact
  count/total/min/max; ``observe`` is O(1) with no allocation after the
  first hit of a bucket.
* :class:`TimeSeries` — step-function samples over virtual time; the
  store behind the resource timelines (:mod:`repro.obs.timeline`), which
  are derived offline from an event stream, never on the hot path.
  Optional ``max_samples`` bounds memory by deterministic decimation.
* :class:`~repro.obs.telemetry.sketch.QuantileSketch` — streaming
  percentiles with a relative-error guarantee, registered via
  :meth:`MetricsRegistry.sketch`.  Only built when a controller opts
  into telemetry, so clean-run snapshots stay bit-identical.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Mapping

from repro.obs.telemetry.sketch import DEFAULT_REL_ERR, QuantileSketch
from repro.util.frozen import FrozenDict, freeze, thaw


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, n: float = 1) -> None:
        self.value += n


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, v: float) -> None:
        self.value = v

    def set_max(self, v: float) -> None:
        """Keep the running maximum of the observed values."""
        if v > self.value:
            self.value = v


class Histogram:
    """Log2-bucketed distribution of non-negative samples.

    Bucket ``e`` counts samples ``x`` with ``2**(e-1) <= x < 2**e``
    (``frexp`` exponent); zeros land in a dedicated bucket.  Exact
    ``count``, ``total``, ``min`` and ``max`` ride along, so means and
    extremes are not quantized.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: dict[int, int] = {}

    def observe(self, x: float) -> None:
        self.count += 1
        self.total += x
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x
        e = math.frexp(x)[1] if x > 0 else -1074  # zero/denormal bucket
        b = self.buckets
        try:
            b[e] += 1
        except KeyError:
            b[e] = 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        """Plain-dict form (JSON-friendly)."""
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "buckets": {
                (2.0 ** e if e > -1074 else 0.0): n
                for e, n in sorted(self.buckets.items())
            },
        }


class TimeSeries:
    """A right-continuous step function sampled over virtual time.

    ``sample(t, v)`` records "the quantity became ``v`` at time ``t``";
    the value holds until the next sample.  Sample times must be
    non-decreasing (event-stream builders sort first); equal-time
    samples collapse to the last write, keeping the series canonical.

    ``max_samples`` (off by default, so existing series — and the
    goldens derived from them — are bit-identical) bounds memory: when
    the store exceeds it, every other interior sample is dropped.  The
    survivors keep their exact ``(t, v)`` pairs and their order, so the
    result is still a valid step function with the same first and final
    values; resolution halves between the retained steps.  Decimation
    is purely index-based — deterministic for a deterministic stream.
    """

    __slots__ = ("times", "values", "max_samples")

    def __init__(self, max_samples: int | None = None) -> None:
        if max_samples is not None and max_samples < 2:
            raise ValueError(
                f"max_samples must be >= 2, got {max_samples}"
            )
        self.times: list[float] = []
        self.values: list[float] = []
        self.max_samples = max_samples

    def sample(self, t: float, v: float) -> None:
        times = self.times
        if times:
            last = times[-1]
            if t < last:
                raise ValueError(
                    f"TimeSeries samples must be time-ordered "
                    f"({t} < {last})"
                )
            if t == last:
                self.values[-1] = v
                return
        times.append(t)
        self.values.append(v)
        if self.max_samples is not None and len(times) > self.max_samples:
            self._decimate()

    def _decimate(self) -> None:
        """Drop every other interior sample (first and last survive)."""
        times, values = self.times, self.values
        n = len(times)
        keep = list(range(0, n - 1, 2))
        if keep[-1] != n - 1:
            keep.append(n - 1)
        self.times = [times[i] for i in keep]
        self.values = [values[i] for i in keep]

    def __len__(self) -> int:
        return len(self.times)

    def __bool__(self) -> bool:
        return bool(self.times)

    @property
    def final(self) -> float:
        """The value after the last sample (0.0 for an empty series)."""
        return self.values[-1] if self.values else 0.0

    def max(self, default: float = 0.0) -> float:
        """High-water mark of the series."""
        return max(self.values, default=default)

    def value_at(self, t: float) -> float:
        """The step function evaluated at ``t`` (0.0 before the first sample)."""
        i = bisect_right(self.times, t) - 1
        return self.values[i] if i >= 0 else 0.0

    def integral(self, until: float) -> float:
        """Time-weighted integral of the series over ``[0, until]``."""
        total = 0.0
        times, values = self.times, self.values
        for i, (t, v) in enumerate(zip(times, values)):
            if t >= until:
                break
            t_next = times[i + 1] if i + 1 < len(times) else until
            total += v * (min(t_next, until) - t)
        return total

    def mean(self, until: float) -> float:
        """Time-weighted mean over ``[0, until]``."""
        return self.integral(until) / until if until > 0 else 0.0

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-friendly)."""
        return {"t": list(self.times), "v": list(self.values)}


@dataclass(frozen=True)
class MetricsSnapshot:
    """Read-only copy of a registry, attached to a finished run's result.

    Every family is a :class:`~repro.util.frozen.FrozenDict` all the way
    down (a series' samples are tuples), so one snapshot is shared by
    every holder of the run's result; :meth:`to_dict` hands out plain
    dicts.
    """

    counters: Mapping[str, float] = field(default_factory=FrozenDict)
    gauges: Mapping[str, float] = field(default_factory=FrozenDict)
    histograms: Mapping[str, Mapping] = field(default_factory=FrozenDict)
    timeseries: Mapping[str, Mapping] = field(default_factory=FrozenDict)
    #: Serialized quantile sketches (:meth:`QuantileSketch.to_dict`),
    #: present only on telemetry-enabled runs.
    sketches: Mapping[str, Mapping] = field(default_factory=FrozenDict)

    def counter(self, name: str, default: float = 0) -> float:
        return self.counters.get(name, default)

    def gauge(self, name: str, default: float = 0.0) -> float:
        return self.gauges.get(name, default)

    def quantile(self, name: str, q: float, default: float = 0.0) -> float:
        """Read quantile ``q`` from sketch ``name`` (within its rel_err).

        Common quantiles are precomputed in the serialized form; any
        other ``q`` is answered by rebuilding the sketch.
        """
        d = self.sketches.get(name)
        if d is None:
            return default
        key = {0.50: "p50", 0.95: "p95", 0.99: "p99"}.get(q)
        if key is not None and key in d:
            return d[key]
        return QuantileSketch.from_dict(d).quantile(q)

    def summary(self) -> str:
        """Multi-line human-readable dump."""
        lines = []
        for name, v in sorted(self.counters.items()):
            lines.append(f"{name} = {v:g}")
        for name, v in sorted(self.gauges.items()):
            lines.append(f"{name} = {v:.6g}")
        for name, h in sorted(self.histograms.items()):
            lines.append(
                f"{name}: n={h['count']} mean={h['mean']:.6g} "
                f"min={h['min']:.6g} max={h['max']:.6g}"
            )
        for name, s in sorted(self.sketches.items()):
            lines.append(
                f"{name}: n={s['count']} p50={s['p50']:.6g} "
                f"p95={s['p95']:.6g} p99={s['p99']:.6g} "
                f"max={s['max']:.6g}"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-able form of every instrument family.

        This is the shape the live status writer embeds in its
        snapshots (and ``python -m repro.obs serve`` exports as
        Prometheus text); ``timeseries`` is omitted — per-sample series
        belong in traces, not in a poll-every-250ms status file.
        """
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": thaw(self.histograms),
            "sketches": thaw(self.sketches),
        }


class MetricsRegistry:
    """Named instruments of one controller run.

    ``counter`` / ``gauge`` / ``histogram`` get-or-create, so hot paths
    fetch the instrument once and update the returned object directly.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._timeseries: dict[str, TimeSeries] = {}
        self._sketches: dict[str, QuantileSketch] = {}

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter()
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge()
        return g

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram()
        return h

    def timeseries(
        self, name: str, max_samples: int | None = None
    ) -> TimeSeries:
        ts = self._timeseries.get(name)
        if ts is None:
            ts = self._timeseries[name] = TimeSeries(max_samples)
        return ts

    def sketch(
        self, name: str, rel_err: float = DEFAULT_REL_ERR
    ) -> QuantileSketch:
        """Get-or-create a streaming quantile sketch.

        Only telemetry-enabled runs call this — a registry with no
        sketches snapshots exactly as before, so goldens are unchanged.
        """
        sk = self._sketches.get(name)
        if sk is None:
            sk = self._sketches[name] = QuantileSketch(rel_err)
        return sk

    def snapshot(self) -> MetricsSnapshot:
        """Copy every instrument into a read-only :class:`MetricsSnapshot`."""
        return MetricsSnapshot(
            FrozenDict((k, c.value) for k, c in self._counters.items()),
            FrozenDict((k, g.value) for k, g in self._gauges.items()),
            freeze({k: h.snapshot() for k, h in self._histograms.items()}),
            freeze({k: ts.to_dict() for k, ts in self._timeseries.items()}),
            freeze({k: sk.to_dict() for k, sk in self._sketches.items()}),
        )
