"""Bounded in-simulation time series (the scrape pipeline's storage).

A :class:`TimeSeriesStore` holds one ring buffer per (name, labels)
pair, fed by the monitoring scraper on a fixed cadence. Series are
bounded two ways — a sample-count cap and a retention window — so a
long simulation cannot grow memory without bound, mirroring a real
TSDB's retention policy. A series that stops being scraped (a crashed
component, a torn-down job) receives a *staleness marker*: rule
evaluation then treats the series as absent instead of acting forever
on its last value, exactly Prometheus' staleness semantics.
"""

from collections import deque


class TimeSeries:
    """One ring-buffered series of ``(time, value)`` samples.

    A sample whose value is ``None`` is a staleness marker: the series
    stopped being observed at that time. Markers terminate the series
    for instant lookups but are skipped by :meth:`values` /
    :meth:`window` so historical analysis sees only real samples.
    """

    __slots__ = ("name", "labels", "retention", "samples")

    def __init__(self, name, labels=(), retention=600.0, max_samples=2048):
        self.name = name
        self.labels = canonical_labels(labels)
        self.retention = retention
        self.samples = deque(maxlen=max_samples)

    @property
    def labels_dict(self):
        return dict(self.labels)

    def add(self, time, value):
        """Append a sample. Samples arrive in time order and
        :meth:`window` relies on it; equal times are legal, since two
        passes can run at one simulated instant."""
        if self.samples and time < self.samples[-1][0]:
            raise ValueError(
                f"{self!r}: sample at {time} is older than the newest, "
                f"at {self.samples[-1][0]}")
        self._trim(time)
        self.samples.append((time, value))

    def mark_stale(self, time):
        """Record that the series stopped being observed at ``time``."""
        if self.samples and self.samples[-1][1] is None:
            return  # already stale; one marker is enough
        self.add(time, None)

    def _trim(self, now):
        cutoff = now - self.retention
        while self.samples and self.samples[0][0] < cutoff:
            self.samples.popleft()

    def latest(self):
        """The last ``(time, value)`` sample (may be a staleness marker)."""
        return self.samples[-1] if self.samples else None

    def latest_value(self, now=None, staleness=None):
        """The freshest real value, or ``None`` if the series is stale.

        Stale means: no samples, the last sample is a staleness marker,
        or (when ``staleness`` is given) the last sample is older than
        ``now - staleness``.
        """
        if not self.samples:
            return None
        time, value = self.samples[-1]
        if value is None:
            return None
        if staleness is not None and now is not None and now - time > staleness:
            return None
        return value

    def window(self, start, end=None):
        """Real samples with ``start <= time <= end`` (markers skipped),
        oldest first.

        Walks back from the newest sample and stops at the first one
        older than ``start``, so a read costs the window, not the
        retention: the rule engine reads an 8 s window of 600 s series
        every tick.
        """
        out = []
        for sample in reversed(self.samples):
            time, value = sample
            if time < start:
                break
            if value is not None and (end is None or time <= end):
                out.append(sample)
        out.reverse()
        return out

    def values(self):
        return [v for _t, v in self.samples if v is not None]

    def __len__(self):
        return len(self.samples)

    def __repr__(self):
        labels = "{" + ",".join(f"{k}={v}" for k, v in self.labels) + "}" \
            if self.labels else ""
        return f"<TimeSeries {self.name}{labels} n={len(self.samples)}>"


def counter_increase(points):
    """Prometheus-style ``increase()`` over ``(time, value)`` samples.

    Sums positive deltas so a counter reset — a child pruned when its
    endpoint went away and recreated at zero after a restart — counts
    from zero instead of producing a huge negative delta. Identical to
    ``last - first`` for a monotone series.
    """
    total = 0.0
    prev = points[0][1]
    for _t, value in points[1:]:
        total += value - prev if value >= prev else value
        prev = value
    return total


def canonical_labels(labels):
    """Normalize a labels dict/iterable into a sorted tuple of pairs."""
    if isinstance(labels, dict):
        items = labels.items()
    else:
        items = labels
    return tuple(sorted((str(k), str(v)) for k, v in items))


class TimeSeriesStore:
    """All scraped series, keyed by (name, canonical labels).

    ``retention``/``max_samples`` are the store-wide bounds; per-series
    overrides (keyed by metric name) let an operator keep e.g. ``up``
    history longer than high-cardinality RPC quantiles.
    """

    def __init__(self, retention=600.0, max_samples=2048):
        self.retention = retention
        self.max_samples = max_samples
        self._series = {}
        # name -> sorted [(labels, series)] cache: series() is on the
        # alert engine's per-tick path, and without the index every rule
        # evaluation re-sorted the whole store. The cache invalidates
        # only on series creation and removal.
        self._by_name = {}
        self._sorted_by_name = {}
        self._overrides = {}  # name -> (retention, max_samples)

    def configure(self, name, retention=None, max_samples=None):
        """Per-series-name retention override for series created later."""
        self._overrides[name] = (
            retention if retention is not None else self.retention,
            max_samples if max_samples is not None else self.max_samples,
        )

    def _get_or_create(self, name, labels):
        key = (name, canonical_labels(labels))
        series = self._series.get(key)
        if series is None:
            retention, max_samples = self._overrides.get(
                name, (self.retention, self.max_samples))
            series = TimeSeries(name, key[1], retention=retention,
                                max_samples=max_samples)
            self._series[key] = series
            self._by_name.setdefault(name, {})[key[1]] = series
            self._sorted_by_name.pop(name, None)
        return series

    def add(self, name, labels, time, value):
        self._get_or_create(name, labels).add(time, value)

    def mark_stale(self, name, labels, time):
        series = self._series.get((name, canonical_labels(labels)))
        if series is not None:
            series.mark_stale(time)

    def remove(self, name, labels=()):
        """Drop one series (scraper cardinality pruning of series whose
        source went away and stayed away past retention). Returns
        whether the series existed."""
        key = (name, canonical_labels(labels))
        if self._series.pop(key, None) is None:
            return False
        group = self._by_name.get(name)
        if group is not None:
            group.pop(key[1], None)
            if not group:
                del self._by_name[name]
        self._sorted_by_name.pop(name, None)
        return True

    def get(self, name, labels=()):
        return self._series.get((name, canonical_labels(labels)))

    def _sorted_group(self, name):
        group = self._sorted_by_name.get(name)
        if group is None:
            by_labels = self._by_name.get(name)
            if not by_labels:
                return []
            group = [series for _labels, series in sorted(by_labels.items())]
            self._sorted_by_name[name] = group
        return group

    def series(self, name=None, **match):
        """Series filtered by name and label-subset match, sorted."""
        wanted = canonical_labels(match)
        if name is not None:
            group = self._sorted_group(name)
            if not wanted:
                return list(group)
            wanted_set = set(wanted)
            return [series for series in group
                    if wanted_set <= set(series.labels)]
        out = []
        for series_name in sorted(self._by_name):
            for series in self._sorted_group(series_name):
                if wanted and not set(wanted) <= set(series.labels):
                    continue
                out.append(series)
        return out

    def names(self):
        return sorted({name for name, _labels in self._series})

    def __len__(self):
        return len(self._series)
