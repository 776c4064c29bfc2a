"""Labeled metrics for simulated components.

Mirrors the shape of a Prometheus registry: named counter, gauge and
histogram *families*, each optionally carrying a fixed label schema.
An unlabeled family behaves exactly like a single metric (``inc``,
``set``, ``observe`` act on its default child), so simple call sites
stay simple; labeled families hand out children via ``labels(...)``.

Metric names are static and validated at registration — dynamic
dimensions (job ids, pod names, methods) belong in label values, never
in names, or the series namespace becomes unbounded and unaggregable.
Benchmarks read these to produce the paper's tables, and
:meth:`MetricsRegistry.expose` renders the Prometheus text format the
REST layer serves.

A registry also records what changed for its scraper
(:meth:`MetricsRegistry.changes`). A child goes on the registry's born
list when ``labels()`` creates it, and on its written list at its
first ``inc``/``set``/``dec``/``observe`` after the scraper read it;
``remove`` puts it on the removed list. A scrape then costs the
children written since the last one, not every child.
This rests on one contract: a child's ``value``, ``total``,
``samples`` and ``_deltas`` change only through those methods
(``scripts/lint_metric_writes.py`` rejects an assignment anywhere
else), or the scrape would not see the change.
"""

import math
import re
import statistics
from bisect import bisect_left

_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_.]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

# Prometheus-style default buckets, in simulated seconds, widened at the
# top because deploy/recovery intervals run into minutes.
DEFAULT_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
                   5.0, 10.0, 30.0, 60.0, 120.0, 300.0)


def _check_name(name):
    if not _NAME_RE.match(name):
        raise ValueError(
            f"invalid metric name {name!r}: names must be static "
            "([a-zA-Z_][a-zA-Z0-9_.]*); put dynamic values in labels"
        )
    return name


class _Family:
    """Shared machinery: a named family of label-keyed children."""

    def __init__(self, name, labelnames, help, registry):
        self.name = _check_name(name)
        self._registry = registry
        self.labelnames = tuple(labelnames)
        self.help = help
        for label in self.labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self._children = {}
        self._sorted_children = None

    def labels(self, **labelvalues):
        """The child for one combination of label values."""
        names = self.labelnames
        try:
            key = tuple([str(labelvalues[label]) for label in names])
        except KeyError:
            key = None
        if key is None or len(labelvalues) != len(names):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        child = self._children.get(key)
        if child is None:
            child = self._new_child()
            self._children[key] = child
            self._sorted_children = None
            registry = self._registry
            if registry._born is not None:
                registry._born.append((self, key, child))
        return child

    def remove(self, **labelvalues):
        """Drop the child for one label combination.

        Cardinality pruning: when a label set's source disappears for
        good (an endpoint unregistered, a pod torn down) its child
        would otherwise be walked by every scrape forever. A later
        ``labels()`` call with the same values recreates the child at
        zero — downstream consumers must treat that as a counter reset.
        Removing an absent child is a no-op."""
        names = self.labelnames
        try:
            key = tuple([str(labelvalues[label]) for label in names])
        except KeyError:
            key = None
        if key is None or len(labelvalues) != len(names):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        child = self._children.pop(key, None)
        if child is not None:
            self._sorted_children = None
            registry = self._registry
            if registry._removed is not None:
                registry._removed.append(child)

    def _default(self):
        if self.labelnames:
            raise ValueError(
                f"metric {self.name!r} is labeled {self.labelnames}; "
                "use .labels(...)"
            )
        return self.labels()

    def children(self):
        """Sorted ``(labelvalues_tuple, child)`` pairs.

        Cached between calls; creating a new child invalidates the
        cache. Callers must treat the list as read-only.
        """
        if self._sorted_children is None:
            self._sorted_children = sorted(self._children.items())
        return self._sorted_children


def _mark_written(child):
    """Put a child on its registry's written list, once per scrape.

    ``_sink`` is the written list while the child is clean and None
    while it is listed (or belongs to no scraped registry);
    :meth:`MetricsRegistry.changes` re-arms it when it hands the child
    to the scraper."""
    child._sink.append(child)
    child._sink = None


class _CounterChild:
    __slots__ = ("value", "_sink")

    def __init__(self):
        self.value = 0.0
        self._sink = None

    def inc(self, amount=1.0):
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount
        if self._sink is not None:
            _mark_written(self)


class Counter(_Family):
    """Monotonically increasing count."""

    kind = "counter"
    _new_child = _CounterChild

    def inc(self, amount=1.0):
        self._default().inc(amount)

    @property
    def value(self):
        return self._default().value


class _GaugeChild:
    __slots__ = ("value", "_sink")

    def __init__(self):
        self.value = 0.0
        self._sink = None

    def set(self, value):
        # Set to what it holds already, the gauge is not written: the
        # scrape holds its series instead of sampling the same value.
        # The same value means the same type and, for a zero, the same
        # sign (0.0 and -0.0 print differently); a NaN is never equal.
        if self._sink is not None:
            old = self.value
            if type(value) is not type(old) or value != old or (
                    value == 0
                    and math.copysign(1.0, value) != math.copysign(1.0, old)):
                _mark_written(self)
        self.value = value

    def inc(self, amount=1.0):
        self.value += amount
        if self._sink is not None:
            _mark_written(self)

    def dec(self, amount=1.0):
        self.inc(-amount)


class Gauge(_Family):
    """A value that can go up and down."""

    kind = "gauge"
    _new_child = _GaugeChild

    def set(self, value):
        self._default().set(value)

    def inc(self, amount=1.0):
        self._default().inc(amount)

    def dec(self, amount=1.0):
        self._default().dec(amount)

    @property
    def value(self):
        return self._default().value


class _HistogramChild:
    """Raw observations plus cumulative bucket counts.

    Simulations record at most a few hundred thousand samples, so the
    raw list is affordable and gives exact percentiles; buckets exist
    for the Prometheus exposition. The sort needed by ``percentile`` is
    cached and invalidated on ``observe``, so repeated percentile reads
    (snapshots, exposition) don't re-sort an unchanged sample set.
    """

    __slots__ = ("buckets", "samples", "total", "_sorted", "_deltas",
                 "_cumulative", "_sink")

    def __init__(self, buckets):
        self.buckets = buckets
        # Per-bucket (non-cumulative) counts; +Inf last. The Prometheus
        # cumulative view is derived lazily, so observe() is a single
        # bisect instead of a walk over every bucket.
        self._deltas = [0] * (len(self.buckets) + 1)
        self._cumulative = None
        self.samples = []
        self.total = 0.0
        self._sorted = None
        self._sink = None

    def observe(self, value):
        self.samples.append(value)
        self.total += value
        self._sorted = None
        self._cumulative = None
        self._deltas[bisect_left(self.buckets, value)] += 1
        if self._sink is not None:
            _mark_written(self)

    @property
    def bucket_counts(self):
        """Cumulative bucket counts (Prometheus ``le`` semantics);
        +Inf last. Read-only view, rebuilt after observations."""
        counts = self._cumulative
        if counts is None:
            counts = self._cumulative = []
            running = 0
            for delta in self._deltas:
                running += delta
                counts.append(running)
        return counts

    @property
    def count(self):
        return len(self.samples)

    @property
    def mean(self):
        return statistics.fmean(self.samples) if self.samples else math.nan

    @property
    def minimum(self):
        return min(self.samples) if self.samples else math.nan

    @property
    def maximum(self):
        return max(self.samples) if self.samples else math.nan

    def percentile(self, q):
        """Exact percentile ``q`` in [0, 100] by nearest-rank."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile out of range: {q}")
        if not self.samples:
            return math.nan
        if self._sorted is None:
            self._sorted = sorted(self.samples)
        rank = max(1, math.ceil(q / 100.0 * len(self._sorted)))
        return self._sorted[rank - 1]

    def bucket_percentile(self, q):
        """Percentile estimated from the cumulative buckets alone.

        The ``histogram_quantile`` estimate: linear interpolation
        inside the first bucket whose cumulative count reaches the
        target rank, O(#buckets) with no sort — cheap enough to call on
        every scrape tick, unlike :meth:`percentile`, whose sort cache
        is invalidated by every observation. Values landing in the
        +Inf bucket clamp to the largest finite bound. ``None`` when
        empty.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile out of range: {q}")
        counts = self.bucket_counts
        total = counts[-1]
        if total == 0:
            return None
        rank = max(1, math.ceil(q / 100.0 * total))
        for index, bound in enumerate(self.buckets):
            cumulative = counts[index]
            if cumulative >= rank:
                below = counts[index - 1] if index else 0
                lower = self.buckets[index - 1] if index else 0.0
                in_bucket = cumulative - below
                fraction = (rank - below) / in_bucket
                return lower + (bound - lower) * fraction
        return self.buckets[-1]


class Histogram(_Family):
    """Records observations; exposes count/mean/percentiles/buckets."""

    kind = "histogram"
    # Bucket bounds of every child; a test sets the attribute on its
    # histogram before the first child exists.
    buckets = DEFAULT_BUCKETS

    def _new_child(self):
        return _HistogramChild(self.buckets)

    def observe(self, value):
        self._default().observe(value)

    def percentile(self, q):
        return self._default().percentile(q)

    @property
    def count(self):
        return self._default().count

    @property
    def total(self):
        return self._default().total

    @property
    def mean(self):
        return self._default().mean

    @property
    def minimum(self):
        return self._default().minimum

    @property
    def maximum(self):
        return self._default().maximum

    @property
    def samples(self):
        return self._default().samples


def _escape_label_value(value):
    # Prometheus text format: label values escape backslash, double
    # quote and newline; anything else passes through verbatim.
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text):
    # HELP lines escape backslash and newline (quotes stay literal).
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value):
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _labels_text(labelnames, labelvalues, extra=()):
    pairs = [f'{name}="{_escape_label_value(value)}"'
             for name, value in zip(labelnames, labelvalues)]
    pairs.extend(f'{name}="{_escape_label_value(value)}"'
                 for name, value in extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


class MetricsRegistry:
    """Namespace of metric families; one per simulation, shared."""

    def __init__(self):
        self._metrics = {}
        # What changed since the scraper's last call to changes(). The
        # born and removed lists stay None until that first call, so a
        # registry nobody scrapes records nothing.
        self._born = None
        self._written = []
        self._removed = None

    def counter(self, name, labelnames=(), help=""):
        return self._get(name, Counter, labelnames, help)

    def gauge(self, name, labelnames=(), help=""):
        return self._get(name, Gauge, labelnames, help)

    def histogram(self, name, labelnames=(), help=""):
        return self._get(name, Histogram, labelnames, help)

    def _get(self, name, kind, labelnames=(), help=""):
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind(name, labelnames, help, registry=self)
            self._metrics[name] = metric
            return metric
        if not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        if tuple(labelnames) != metric.labelnames:
            raise ValueError(
                f"metric {name!r} already registered with labels "
                f"{metric.labelnames}, not {tuple(labelnames)}"
            )
        return metric

    def names(self):
        return sorted(self._metrics)

    def changes(self):
        """What changed since the previous call, for the one scraper
        that reads this registry: ``(born, written, removed)``.

        ``born`` holds a ``(family, labelvalues, child)`` triple per
        child created, ``written`` every child written at least once,
        ``removed`` every child ``remove`` dropped; a child can be in
        more than one. Recording starts at the first call, which
        returns every existing child as born. Each child handed over
        is re-armed, so its next write lists it again, except a
        removed one, which no scrape reads any more."""
        if self._born is None:
            born = [(metric, key, child)
                    for metric in self._metrics.values()
                    for key, child in metric._children.items()]
            removed = []
        else:
            born, removed = self._born, self._removed
        # Armed children keep a reference to the written list, so it is
        # emptied in place, never replaced.
        sink = self._written
        written = sink[:]
        sink.clear()
        self._born, self._removed = [], []
        for _family, _key, child in born:
            child._sink = sink
        for child in written:
            child._sink = sink
        for child in removed:
            child._sink = None
        return born, written, removed

    def get(self, name):
        return self._metrics.get(name)

    def snapshot(self):
        """Plain-dict view of every metric, for reports and tests.

        Unlabeled children key by bare name; labeled children key as
        ``name{a="x",b="y"}``. Histogram entries carry count/mean/min/
        max plus p50/p95/p99.
        """
        out = {}
        for name, metric in sorted(self._metrics.items()):
            for labelvalues, child in metric.children():
                key = name + _labels_text(metric.labelnames, labelvalues)
                if metric.kind == "histogram":
                    # A child with zero observations has no meaningful
                    # statistics: report None, not NaN (which breaks
                    # JSON serialization) and not a misleading 0.
                    empty = child.count == 0
                    out[key] = {
                        "count": child.count,
                        "mean": None if empty else child.mean,
                        "min": None if empty else child.minimum,
                        "max": None if empty else child.maximum,
                        "p50": None if empty else child.percentile(50),
                        "p95": None if empty else child.percentile(95),
                        "p99": None if empty else child.percentile(99),
                    }
                else:
                    out[key] = child.value
        return out

    def expose(self):
        """Render every metric in the Prometheus text exposition format.

        Dots in metric names (a legacy house style) become underscores,
        since Prometheus names admit only ``[a-zA-Z0-9_:]``.
        """
        lines = []
        for name, metric in sorted(self._metrics.items()):
            exposed = name.replace(".", "_")
            if metric.help:
                lines.append(f"# HELP {exposed} {_escape_help(metric.help)}")
            lines.append(f"# TYPE {exposed} {metric.kind}")
            for labelvalues, child in metric.children():
                base = list(zip(metric.labelnames, labelvalues))
                if metric.kind == "histogram":
                    cumulative = 0
                    for bound, in_bucket in zip(child.buckets,
                                                child.bucket_counts):
                        cumulative = in_bucket
                        labels = _labels_text(
                            (), (), extra=base + [("le", _format_value(bound))]
                        )
                        lines.append(f"{exposed}_bucket{labels} {cumulative}")
                    labels = _labels_text((), (), extra=base + [("le", "+Inf")])
                    lines.append(f"{exposed}_bucket{labels} {child.bucket_counts[-1]}")
                    plain = _labels_text((), (), extra=base)
                    lines.append(f"{exposed}_sum{plain} {_format_value(child.total)}")
                    lines.append(f"{exposed}_count{plain} {child.count}")
                else:
                    labels = _labels_text((), (), extra=base)
                    lines.append(f"{exposed}{labels} {_format_value(child.value)}")
        return "\n".join(lines) + ("\n" if lines else "")
