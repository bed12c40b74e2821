"""Typed metrics: counters, gauges, and log-linear histograms.

The registry holds every observability metric. Metrics are keyed by hierarchical dotted names (``core0.issue.rounds``,
``kernel.sched.ps.latency_cycles``) so snapshots group naturally and
exporters can route by prefix; :data:`repro.obs.snapshot.NAMESPACE`
documents the reserved prefixes.

Histograms are log-linear (HdrHistogram-style): values below
``2**HISTOGRAM_LINEAR_BITS`` get exact unit buckets, larger values land
in one of ``2**HISTOGRAM_SUBBUCKET_BITS`` sub-buckets per power of two,
bounding the relative quantile error at ``2**-HISTOGRAM_SUBBUCKET_BITS``
while keeping memory constant regardless of sample count.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from repro.errors import ConfigError

#: Values below 2**LINEAR_BITS are bucketed exactly (one bucket per value).
HISTOGRAM_LINEAR_BITS = 4
#: Sub-buckets per power of two above the linear range; the histogram's
#: worst-case relative quantile error is 2**-SUBBUCKET_BITS (6.25%).
HISTOGRAM_SUBBUCKET_BITS = 4

_LINEAR_LIMIT = 1 << HISTOGRAM_LINEAR_BITS
_SUBBUCKETS = 1 << HISTOGRAM_SUBBUCKET_BITS


def _check_name(name: str) -> str:
    if not name or any(c.isspace() for c in name):
        raise ConfigError(f"bad metric name {name!r}")
    return name


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A point-in-time numeric value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Gauge {self.name}={self.value}>"


def _bucket_index(value: int) -> int:
    """Log-linear bucket index for a non-negative integer value."""
    if value < _LINEAR_LIMIT:
        return value
    exponent = value.bit_length() - 1
    sub = (value >> (exponent - HISTOGRAM_SUBBUCKET_BITS)) - _SUBBUCKETS
    return _LINEAR_LIMIT + (exponent - HISTOGRAM_LINEAR_BITS) * _SUBBUCKETS + sub


def _bucket_bounds(index: int) -> Tuple[int, int]:
    """Inclusive [low, high] value range covered by a bucket index."""
    if index < _LINEAR_LIMIT:
        return index, index
    offset = index - _LINEAR_LIMIT
    exponent = HISTOGRAM_LINEAR_BITS + offset // _SUBBUCKETS
    sub = offset % _SUBBUCKETS
    width = 1 << (exponent - HISTOGRAM_SUBBUCKET_BITS)
    low = (_SUBBUCKETS + sub) * width
    return low, low + width - 1


class Histogram:
    """Log-linear value distribution with cheap percentile queries."""

    __slots__ = ("name", "count", "total", "minimum", "maximum", "_buckets")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0
        self.minimum: Optional[int] = None
        self.maximum: Optional[int] = None
        self._buckets: Dict[int, int] = {}

    def record(self, value: float, count: int = 1) -> None:
        """Record ``value`` (negatives clamp to zero, floats truncate)."""
        value = int(value)
        if value < 0:
            value = 0
        self.count += count
        self.total += value * count
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        index = _bucket_index(value)
        self._buckets[index] = self._buckets.get(index, 0) + count

    def percentile(self, pct: float) -> float:
        """Approximate percentile (nearest-rank over bucket midpoints).

        The result is clamped to the exact observed [min, max], so p0
        and p100 are exact and interior quantiles are within one
        sub-bucket (2**-SUBBUCKET_BITS relative) of the true value.
        """
        if not self.count:
            raise ConfigError(f"histogram {self.name!r} is empty")
        if not 0.0 <= pct <= 100.0:
            raise ConfigError(f"percentile must be in [0, 100], got {pct}")
        if pct == 0.0:
            return float(self.minimum)
        if pct == 100.0:
            return float(self.maximum)
        target = max(1, -(-int(self.count * pct) // 100))  # ceil, >= 1
        seen = 0
        value = self.maximum
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= target:
                low, high = _bucket_bounds(index)
                value = (low + high) // 2
                break
        return float(min(max(value, self.minimum), self.maximum))

    @property
    def mean(self) -> float:
        if not self.count:
            raise ConfigError(f"histogram {self.name!r} is empty")
        return self.total / self.count

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s samples into this histogram."""
        if not other.count:
            return
        self.count += other.count
        self.total += other.total
        if self.minimum is None or other.minimum < self.minimum:
            self.minimum = other.minimum
        if self.maximum is None or other.maximum > self.maximum:
            self.maximum = other.maximum
        for index, count in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + count

    def snapshot(self) -> Dict[str, float]:
        """The JSON-friendly summary used in metrics snapshots."""
        if not self.count:
            return {"count": 0}
        return {
            "count": self.count,
            "sum": self.total,
            "mean": round(self.mean, 3),
            "min": self.minimum,
            "p50": self.percentile(50.0),
            "p90": self.percentile(90.0),
            "p99": self.percentile(99.0),
            "max": self.maximum,
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Histogram {self.name} n={self.count}>"


class MetricsRegistry:
    """Named counters, gauges, and histograms, created on first use.

    A name is permanently bound to the first kind it was used as;
    reusing it as another kind raises (catching namespace typos early).
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            self._claim(name, self._counters)
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            self._claim(name, self._gauges)
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            self._claim(name, self._histograms)
            metric = self._histograms[name] = Histogram(name)
        return metric

    def _claim(self, name: str, into: Dict) -> None:
        _check_name(name)
        for kind in (self._counters, self._gauges, self._histograms):
            if kind is not into and name in kind:
                raise ConfigError(
                    f"metric {name!r} already registered as another kind")

    # convenience shorthands ------------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        self.counter(name).inc(amount)

    def set(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).record(value)

    # ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in: counters add, gauges last-write-win,
        histograms merge sample-exactly."""
        for name, counter in other._counters.items():
            self.counter(name).inc(counter.value)
        for name, gauge in other._gauges.items():
            self.gauge(name).set(gauge.value)
        for name, histogram in other._histograms.items():
            self.histogram(name).merge(histogram)

    def clear(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def names(self) -> Iterator[str]:
        yield from self._counters
        yield from self._gauges
        yield from self._histograms

    def __len__(self) -> int:
        return (len(self._counters) + len(self._gauges)
                + len(self._histograms))

    def snapshot(self) -> Dict[str, Dict]:
        """Deterministic JSON-ready view (keys sorted)."""
        return {
            "counters": {name: self._counters[name].value
                         for name in sorted(self._counters)},
            "gauges": {name: self._gauges[name].value
                       for name in sorted(self._gauges)},
            "histograms": {name: self._histograms[name].snapshot()
                           for name in sorted(self._histograms)},
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<MetricsRegistry counters={len(self._counters)}"
                f" gauges={len(self._gauges)}"
                f" histograms={len(self._histograms)}>")
