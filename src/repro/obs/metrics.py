"""Counters, gauges, and log-bucketed latency histograms.

The registry is the substrate's ``/proc``-style metrics surface: the
kernel trace hook, the callback profiler, and workloads all feed it, and
``repro trace`` reports it.  Histograms use HdrHistogram-style log2
bucketing with sub-buckets, so percentiles up to p999 are available at a
bounded relative error (at most 1/8 with the default 8 sub-buckets per
octave) while
ingestion stays O(1) with a small fixed memory footprint — the property
the paper's overhead ablation needs from in-kernel telemetry.

Every metric is **mergeable**: :meth:`Histogram.merge` folds another
histogram's buckets in exactly (bucket counts are integers, so the merge
is lossless and associative), and the snapshot-level helpers
(:func:`merge_histogram_snapshots`, :func:`merge_registry_snapshots`)
do the same over the plain-data dumps — the substrate N sharded kernels
use to aggregate fleet-wide telemetry without sharing live objects.
"""

#: sub-bucket resolution: 2**SUBBUCKET_BITS linear slots per power of two
SUBBUCKET_BITS = 4
_SUB = 1 << SUBBUCKET_BITS          # values below this are binned exactly
_HALF = _SUB >> 1


def _bucket_index(value):
    """Map a non-negative int to its log-bucket index (monotone)."""
    if value < _SUB:
        return value
    shift = value.bit_length() - SUBBUCKET_BITS
    # The top SUBBUCKET_BITS bits (MSB always set) select the sub-bucket.
    return _SUB + shift * _HALF + ((value >> shift) - _HALF)


def _bucket_bounds(index):
    """Inverse of :func:`_bucket_index`: [lower, upper) of one bucket."""
    if index < _SUB:
        return index, index + 1
    shift, sub = divmod(index - _SUB, _HALF)
    lower = (_HALF + sub) << shift
    return lower, lower + (1 << shift)


def _percentile_from_buckets(buckets, count, lo, hi, p):
    """Percentile ``p`` over a bucket-index -> count map.

    Shared by live histograms and merged snapshots so both agree exactly.
    Returns 0.0 when the distribution is empty.
    """
    if not count:
        return 0.0
    if p <= 0:
        return float(lo)
    if p >= 100:
        return float(hi)
    target = p / 100.0 * count
    seen = 0
    for index in sorted(buckets):
        in_bucket = buckets[index]
        if seen + in_bucket >= target:
            lower, upper = _bucket_bounds(index)
            fraction = (target - seen) / in_bucket
            value = lower + (upper - lower) * fraction
            return float(min(max(value, lo), hi))
        seen += in_bucket
    return float(hi)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def inc(self, n=1):
        self.value += n

    def __repr__(self):
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A point-in-time value, with min/max watermarks.

    The watermarks track every value the gauge has ever held (hint-ring
    pressure and run-queue depth need high-watermarks — the peak matters
    even when the last-set value is back to zero).
    """

    __slots__ = ("name", "value", "min_value", "max_value")

    def __init__(self, name):
        self.name = name
        self.value = 0
        self.min_value = None
        self.max_value = None

    def set(self, value):
        self.value = value
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value

    def add(self, delta):
        self.set(self.value + delta)

    def snapshot(self):
        return {
            "value": self.value,
            "min": self.min_value if self.min_value is not None else 0,
            "max": self.max_value if self.max_value is not None else 0,
        }

    def __repr__(self):
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """Log-bucketed distribution of non-negative integer samples."""

    __slots__ = ("name", "buckets", "count", "sum", "min", "max")

    def __init__(self, name):
        self.name = name
        self.buckets = {}           # bucket index -> sample count
        self.count = 0
        self.sum = 0
        self.min = None
        self.max = None

    def record(self, value):
        value = int(value)
        if value < 0:
            value = 0
        # _bucket_index(value), inlined: one sample per watched crossing
        if value < _SUB:
            index = value
        else:
            shift = value.bit_length() - SUBBUCKET_BITS
            index = _SUB + shift * _HALF + ((value >> shift) - _HALF)
        self.buckets[index] = self.buckets.get(index, 0) + 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def merge(self, other):
        """Fold ``other``'s samples into this histogram, losslessly.

        Bucket counts are integers, so merging is exact and associative:
        ``merge(a, b)`` then ``merge(ab, c)`` equals any other grouping.
        Returns ``self`` for chaining.
        """
        buckets = self.buckets
        for index, in_bucket in other.buckets.items():
            buckets[index] = buckets.get(index, 0) + in_bucket
        self.count += other.count
        self.sum += other.sum
        if other.min is not None and (self.min is None
                                      or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None
                                      or other.max > self.max):
            self.max = other.max
        return self

    def copy(self, name=None):
        """An independent duplicate (merge targets shouldn't alias)."""
        out = Histogram(name if name is not None else self.name)
        out.buckets = dict(self.buckets)
        out.count = self.count
        out.sum = self.sum
        out.min = self.min
        out.max = self.max
        return out

    @property
    def mean(self):
        return self.sum / self.count if self.count else 0.0

    def percentile(self, p):
        """The value at percentile ``p`` (0..100), interpolated inside the
        containing bucket.  Returns 0.0 for an empty histogram."""
        return _percentile_from_buckets(self.buckets, self.count,
                                        self.min, self.max, p)

    def quantiles(self):
        """The standard latency summary: p50/p90/p99/p999."""
        return {
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "p999": self.percentile(99.9),
        }

    def snapshot(self):
        """Plain-data dump.  ``buckets`` carries the full distribution
        (sorted ``[index, count]`` pairs), so snapshots merge losslessly
        via :func:`merge_histogram_snapshots` and JSON round-trips keep
        the heatmap/merge fidelity."""
        out = {
            "count": self.count,
            "sum": self.sum,
            "min": self.min or 0,
            "max": self.max or 0,
            "mean": self.mean,
            "buckets": [[index, self.buckets[index]]
                        for index in sorted(self.buckets)],
        }
        out.update(self.quantiles())
        return out

    @classmethod
    def from_snapshot(cls, snap, name=""):
        """Rebuild a live histogram from a :meth:`snapshot` dump."""
        out = cls(name)
        out.buckets = {int(i): int(n) for i, n in snap.get("buckets", [])}
        out.count = snap.get("count", 0)
        out.sum = snap.get("sum", 0)
        if out.count:
            out.min = snap.get("min", 0)
            out.max = snap.get("max", 0)
        return out

    def __repr__(self):
        return f"Histogram({self.name!r}, n={self.count})"


def merge_histogram_snapshots(a, b):
    """Merge two histogram snapshot dicts exactly.

    Works on the plain-data form (so it composes across process and JSON
    boundaries) and is associative: bucket counts, totals, and extremes
    are integer sums/min/max, and the derived stats are recomputed from
    the merged buckets.
    """
    merged = Histogram.from_snapshot(a)
    merged.merge(Histogram.from_snapshot(b))
    return merged.snapshot()


def merge_registry_snapshots(a, b):
    """Merge two :meth:`MetricsRegistry.snapshot` dumps.

    Fleet-aggregation semantics: counters sum, gauge values sum (their
    watermarks take the elementwise min/max), histograms merge exactly.
    Metric names present in only one snapshot pass through unchanged.
    """
    counters = dict(a.get("counters", {}))
    for name, value in b.get("counters", {}).items():
        counters[name] = counters.get(name, 0) + value
    gauges = {}
    a_gauges = a.get("gauges", {})
    b_gauges = b.get("gauges", {})
    for name in set(a_gauges) | set(b_gauges):
        ga = a_gauges.get(name)
        gb = b_gauges.get(name)
        if ga is None or gb is None:
            gauges[name] = dict(ga if ga is not None else gb)
            continue
        gauges[name] = {
            "value": ga["value"] + gb["value"],
            "min": min(ga["min"], gb["min"]),
            "max": max(ga["max"], gb["max"]),
        }
    histograms = {}
    a_hists = a.get("histograms", {})
    b_hists = b.get("histograms", {})
    for name in set(a_hists) | set(b_hists):
        ha = a_hists.get(name)
        hb = b_hists.get(name)
        if ha is None or hb is None:
            histograms[name] = dict(ha if ha is not None else hb)
            continue
        histograms[name] = merge_histogram_snapshots(ha, hb)
    return {"counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": dict(sorted(histograms.items()))}


class MetricsRegistry:
    """Named counters/gauges/histograms, created on first touch."""

    def __init__(self):
        self.counters = {}
        self.gauges = {}
        self.histograms = {}

    def counter(self, name):
        metric = self.counters.get(name)
        if metric is None:
            metric = self.counters[name] = Counter(name)
        return metric

    def gauge(self, name):
        metric = self.gauges.get(name)
        if metric is None:
            metric = self.gauges[name] = Gauge(name)
        return metric

    def histogram(self, name):
        metric = self.histograms.get(name)
        if metric is None:
            metric = self.histograms[name] = Histogram(name)
        return metric

    def snapshot(self):
        """Plain-data dump of every metric (JSON-serialisable)."""
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {
                n: g.snapshot() for n, g in sorted(self.gauges.items())
            },
            "histograms": {
                n: h.snapshot() for n, h in sorted(self.histograms.items())
            },
        }
