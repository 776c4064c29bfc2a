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

from bisect import bisect_left, bisect_right
from collections import deque
from itertools import islice

RETENTION = 600.0  # simulated seconds of samples a series keeps
MAX_SAMPLES = 2048  # samples a series keeps at most


class TickLog:
    """The instants of one scraper's passes, oldest first.

    A pass's tick has an absolute index that never changes; ``base`` is
    the index of ``times[0]``. The log keeps the ticks of the retention
    of the store it feeds, which is all a held series
    (:meth:`TimeSeries.hold`) can still show."""

    __slots__ = ("times", "base")

    def __init__(self):
        self.times = []
        self.base = 0

    @property
    def next(self):
        """The index the next appended tick gets."""
        return self.base + len(self.times)

    def append(self, time, horizon):
        times = self.times
        times.append(time)
        cut = bisect_left(times, time - horizon)
        if cut >= 64:  # drop expired ticks in chunks, not one a pass
            del times[:cut]
            self.base += cut


class TimeSeries:
    """One ring-buffered series of ``(time, value)`` samples.

    A sample whose value is ``None`` is a staleness marker: the series
    stopped being observed at that time. Markers terminate the series
    for instant lookups but are skipped by :meth:`values` /
    :meth:`window` so historical analysis sees only real samples.

    A series the scraper writes is *held* (:meth:`hold`): every later
    tick of the scraper's :class:`TickLog` reads as a repeat of the last
    value, which is what an unchanged source would have been sampled
    as, without storing a tuple per tick. :meth:`latest`,
    :meth:`latest_value`, :meth:`window` and :meth:`increase` read that
    tail in place, with the ring's retention and ``max_samples``
    bounds applied to it. The next write or staleness marker, and any
    read of :attr:`samples`, ``len`` or :meth:`values`, first appends
    the tail through the same trimming path as any sample, so the
    stored ring is exactly the one a sample per tick would have built.
    """

    __slots__ = ("name", "labels", "retention", "_samples", "_ticks",
                 "_held_index", "_held_value")

    def __init__(self, name, labels=(), retention=RETENTION,
                 max_samples=MAX_SAMPLES):
        self.name = name
        self.labels = canonical_labels(labels)
        self.retention = retention
        self._samples = deque(maxlen=max_samples)
        self._ticks = None  # the TickLog of a held series, else None
        self._held_index = 0  # the tick of the last held write
        self._held_value = None

    @property
    def samples(self):
        """The stored ring, held tail included."""
        self._materialize()
        return self._samples

    @property
    def labels_dict(self):
        return dict(self.labels)

    def add(self, time, value):
        """Append a sample. Samples arrive in time order and
        :meth:`window` relies on it; equal times are legal, since two
        passes can run at one simulated instant."""
        ticks = self._ticks
        if ticks is not None \
                and self._held_index < ticks.base + len(ticks.times) - 1:
            self._materialize()
        samples = self._samples
        if samples and time < samples[-1][0]:
            raise ValueError(
                f"{self!r}: sample at {time} is older than the newest, "
                f"at {samples[-1][0]}")
        self._trim(time)
        samples.append((time, value))

    def hold(self, time, value, ticks):
        """Add the scraper's sample for its tick ``ticks.next`` (the
        pass under way) and hold ``value`` for the ticks after it."""
        self.add(time, value)
        self._ticks = ticks
        self._held_index = ticks.base + len(ticks.times)
        self._held_value = value

    def mark_stale(self, time):
        """Record that the series stopped being observed at ``time``."""
        self._materialize()
        self._ticks = None
        if self._samples and self._samples[-1][1] is None:
            return  # already stale; one marker is enough
        self.add(time, None)

    def _materialize(self):
        """Append the held tail as samples; the series stays held."""
        ticks = self._ticks
        if ticks is None:
            return
        times = ticks.times
        first = self._held_index + 1 - ticks.base
        if first >= len(times):
            return
        value = self._held_value
        samples = self._samples
        for time in times[max(first, 0):]:
            self._trim(time)
            samples.append((time, value))
        self._held_index = ticks.next - 1

    def _tail(self):
        """``(times, kept, room)`` for a held tail that has ticks, else
        None: the tail's surviving ticks are ``times[kept:]``, and
        ``room`` stored samples survive beside them."""
        ticks = self._ticks
        if ticks is None:
            return None
        times = ticks.times
        first = self._held_index + 1 - ticks.base
        end = len(times)
        if first >= end:
            return None
        # What the ring would hold after appending the tail: nothing
        # older than the newest tick minus the retention, and at most
        # max_samples samples (deque maxlen).
        maxlen = self._samples.maxlen
        kept = max(bisect_left(times, times[-1] - self.retention,
                               max(first, 0), end), end - maxlen)
        return times, kept, maxlen - (end - kept)

    def _trim(self, now):
        cutoff = now - self.retention
        while self._samples and self._samples[0][0] < cutoff:
            self._samples.popleft()

    def latest(self):
        """The last ``(time, value)`` sample (may be a staleness marker)."""
        ticks = self._ticks
        if ticks is not None and self._held_index < ticks.next - 1:
            return (ticks.times[-1], self._held_value)
        return self._samples[-1] if self._samples else None

    def latest_value(self, now=None, staleness=None):
        """The freshest real value, or ``None`` if the series is stale.

        Stale means: no samples, the last sample is a staleness marker,
        or (when ``staleness`` is given) the last sample is older than
        ``now - staleness``.
        """
        sample = self.latest()
        if sample is None:
            return None
        time, value = sample
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
        every tick. A held tail is cut out of the tick log by bisection.
        """
        return self._window(start, end, self._tail())

    def _window(self, start, end, tail):
        out = []
        stored = reversed(self._samples)
        cutoff = start
        if tail is not None:
            times, kept, room = tail
            cutoff = max(start, times[-1] - self.retention)
            stored = islice(stored, max(room, 0))
        for sample in stored:
            time, value = sample
            if time < cutoff:
                break
            if value is not None and (end is None or time <= end):
                out.append(sample)
        out.reverse()
        if tail is not None:
            lo = bisect_left(times, start, kept)
            hi = len(times) if end is None else bisect_right(times, end, lo)
            held = self._held_value
            out.extend([(time, held) for time in times[lo:hi]])
        return out

    def increase(self, start, end=None):
        """:func:`counter_increase` of ``window(start, end)``, or None
        under two samples.

        A held series whose stored samples all predate ``start`` has
        only repeats of one value in the window: two of them already
        give the exact sum, so the ticks are counted by bisection and
        the window is never built."""
        tail = self._tail()
        samples = self._samples
        if tail is not None and (not samples or samples[-1][0] < start):
            times, kept, _room = tail
            lo = bisect_left(times, start, kept)
            hi = len(times) if end is None else bisect_right(times, end, lo)
            if hi - lo < 2:
                return None
            held = self._held_value
            return counter_increase(((times[lo], held), (times[lo], held)))
        points = self._window(start, end, tail)
        if len(points) < 2:
            return None
        return counter_increase(points)

    def values(self):
        return [v for _t, v in self.samples if v is not None]

    def __len__(self):
        return len(self.samples)

    def __repr__(self):
        labels = "{" + ",".join(f"{k}={v}" for k, v in self.labels) + "}" \
            if self.labels else ""
        return f"<TimeSeries {self.name}{labels} n={len(self)}>"


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

    ``retention``/``max_samples`` bound every series; a probe that needs
    other bounds sets them on the store before its first sample.
    """

    def __init__(self):
        self.retention = RETENTION
        self.max_samples = MAX_SAMPLES
        self._series = {}
        # name -> {canonical match: sorted tuple of series} cache:
        # series() is on the alert engine's per-tick path, and without
        # it every rule evaluation re-sorted and re-filtered the whole
        # group. A name's views invalidate only on creation and removal
        # of one of its series; ``()`` keys the unfiltered group.
        self._by_name = {}
        self._sorted_by_name = {}

    def _get_or_create(self, name, labels):
        key = (name, canonical_labels(labels))
        series = self._series.get(key)
        if series is None:
            series = TimeSeries(name, key[1], retention=self.retention,
                                max_samples=self.max_samples)
            self._series[key] = series
            self._by_name.setdefault(name, {})[key[1]] = series
            self._sorted_by_name.pop(name, None)
        return series

    def add(self, name, labels, time, value):
        """Add a sample to the series of ``(name, labels)``, created if
        absent, and return that series: a writer that keeps it skips
        the lookup on later samples, until :meth:`remove` drops it."""
        series = self._get_or_create(name, labels)
        series.add(time, value)
        return series

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

    def series(self, name=None, **match):
        """Series filtered by name and label-subset match, sorted.

        A tuple; for a name, the same tuple while none of that name's
        series is created or removed, so a reader may key what it
        derives from the matched series on the tuple's identity."""
        wanted = canonical_labels(match) if match else ()
        if name is None:
            return tuple(series for series_name in sorted(self._by_name)
                         for series in self.series(series_name, **match))
        views = self._sorted_by_name.get(name)
        if views is None:
            by_labels = self._by_name.get(name)
            if not by_labels:
                return ()
            views = self._sorted_by_name[name] = {
                (): tuple(series for _labels, series
                          in sorted(by_labels.items()))}
        view = views.get(wanted)
        if view is None:
            wanted_set = set(wanted)
            view = views[wanted] = tuple(
                series for series in views[()]
                if wanted_set <= set(series.labels))
        return view

    def __len__(self):
        return len(self._series)
