"""Counters, gauges, and log-bucketed latency histograms.

The registry is the substrate's ``/proc``-style metrics surface: the
kernel trace hook, the callback profiler, and workloads all feed it, and
``repro trace`` reports it.  Histograms use HdrHistogram-style log2
bucketing with sub-buckets, so percentiles up to p999 are available at a
bounded relative error (at most 1/8 with the default 8 sub-buckets per
octave) while
ingestion stays O(1) with a small fixed memory footprint — the property
the paper's overhead ablation needs from in-kernel telemetry.
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
        buckets = self.buckets
        if index in buckets:
            buckets[index] += 1
        else:
            buckets[index] = 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def copy(self, name=None):
        """An independent duplicate."""
        out = Histogram(name if name is not None else self.name)
        out.buckets = dict(self.buckets)
        out.count = self.count
        out.sum = self.sum
        out.min = self.min
        out.max = self.max
        return out

    def merge(self, other):
        """Add ``other``'s samples, as if each was recorded here too."""
        for index, samples in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + samples
        self.count += other.count
        self.sum += other.sum
        if other.count and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.count and (self.max is None or other.max > self.max):
            self.max = other.max

    @property
    def mean(self):
        return self.sum / self.count if self.count else 0.0

    def percentile(self, p):
        """The value at percentile ``p`` (0..100), interpolated inside the
        containing bucket.  Returns 0.0 for an empty histogram."""
        if not self.count:
            return 0.0
        if p <= 0:
            return float(self.min)
        if p >= 100:
            return float(self.max)
        target = p / 100.0 * self.count
        seen = 0
        buckets = self.buckets
        for index in sorted(buckets):
            in_bucket = buckets[index]
            if seen + in_bucket >= target:
                lower, upper = _bucket_bounds(index)
                fraction = (target - seen) / in_bucket
                value = lower + (upper - lower) * fraction
                return float(min(max(value, self.min), self.max))
            seen += in_bucket
        return float(self.max)

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
        (sorted ``[index, count]`` pairs), so JSON round-trips keep the
        heatmap fidelity."""
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

    def __repr__(self):
        return f"Histogram({self.name!r}, n={self.count})"


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
