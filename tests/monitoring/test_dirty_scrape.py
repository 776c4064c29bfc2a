"""A scrape stores what changed, and reads as if it stored every tick.

The scraper samples only the metric children created or written since
its last pass and holds every other live series at its last value
(``TimeSeries.hold``). The eager pipeline it replaced, one sample per
series per pass in a plain ring buffer, is kept here as the oracle:
``EagerSeries``, ``EagerStore`` and ``EagerScraper``. Hypothesis
programs drive both over one registry, and a perfbench-shaped platform
run is made once on each; every read and every materialised series
must be equal.
"""

import importlib.util
import pathlib
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.monitoring import MetricsScraper, stack as stack_module
from repro.sim import Kernel, MetricsRegistry
from repro.sim.timeseries import (
    TimeSeries,
    TimeSeriesStore,
    canonical_labels,
    counter_increase,
)


# ----------------------------------------------------------------------
# The oracle: the eager series, store and scraper
# ----------------------------------------------------------------------

class EagerSeries:
    """A ring of every sample; reads scan it."""

    def __init__(self, name, labels=(), retention=600.0, max_samples=2048):
        self.name = name
        self.labels = canonical_labels(labels)
        self.retention = retention
        self.samples = deque(maxlen=max_samples)

    @property
    def labels_dict(self):
        return dict(self.labels)

    def add(self, time, value):
        if self.samples and time < self.samples[-1][0]:
            raise ValueError(f"sample at {time} is older than the newest")
        cutoff = time - self.retention
        while self.samples and self.samples[0][0] < cutoff:
            self.samples.popleft()
        self.samples.append((time, value))

    def mark_stale(self, time):
        if self.samples and self.samples[-1][1] is None:
            return
        self.add(time, None)

    def latest(self):
        return self.samples[-1] if self.samples else None

    def latest_value(self, now=None, staleness=None):
        if not self.samples:
            return None
        time, value = self.samples[-1]
        if value is None:
            return None
        if staleness is not None and now is not None \
                and now - time > staleness:
            return None
        return value

    def window(self, start, end=None):
        return [(t, v) for t, v in self.samples
                if v is not None and t >= start and (end is None or t <= end)]

    def increase(self, start, end=None):
        points = self.window(start, end)
        return counter_increase(points) if len(points) >= 2 else None

    def values(self):
        return [v for _t, v in self.samples if v is not None]

    def __len__(self):
        return len(self.samples)


class EagerStore(TimeSeriesStore):
    def _get_or_create(self, name, labels):
        key = (name, canonical_labels(labels))
        series = self._series.get(key)
        if series is None:
            series = EagerSeries(name, key[1], retention=self.retention,
                                 max_samples=self.max_samples)
            self._series[key] = series
            self._by_name.setdefault(name, {})[key[1]] = series
            self._sorted_by_name.pop(name, None)
        return series


class EagerScraper(MetricsScraper):
    """Every pass walks every child and samples every series."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._last_keys = set()

    def _emit_eager(self, name, labels, now, value, seen):
        self.store.add(name, labels, now, value)
        seen.add((name, canonical_labels(labels)))

    def scrape_once(self):
        now = self.kernel.now
        seen = set()
        kernel = self.kernel
        self._g_events.set(float(kernel.events_processed))
        self._g_dead.set(float(kernel.dead_entries_skipped))
        self._g_dead_ratio.set(kernel.dead_entry_ratio)
        for name in self.registry.names():
            metric = self.registry.get(name)
            for labelvalues, child in metric.children():
                labels = dict(zip(metric.labelnames, labelvalues))
                if metric.kind != "histogram":
                    self._emit_eager(name, labels, now, child.value, seen)
                    continue
                self._emit_eager(f"{name}_count", labels, now,
                                 float(child.count), seen)
                self._emit_eager(f"{name}_sum", labels, now,
                                 child.total, seen)
                if child.count:
                    for quantile, q in self.QUANTILES:
                        self._emit_eager(
                            name, {**labels, "quantile": quantile}, now,
                            child.bucket_percentile(q), seen)
        for component, up in self.health.up_samples():
            self._emit_eager("up", {"component": component}, now, up, seen)
        for key in self._last_keys - seen:
            self.store.mark_stale(key[0], key[1], now)
            self._stale_since.setdefault(key, now)
        self._last_keys = seen
        stale = self._stale_since
        for key in [k for k in stale if k in seen]:
            del stale[key]
        cutoff = now - self.prune_after
        for key in [k for k, since in stale.items() if since <= cutoff]:
            del stale[key]
            if self.store.remove(key[0], key[1]):
                self.series_pruned += 1
        self._m_scrapes.inc()
        self._m_series.set(len(self.store))


def materialised(store):
    return {(s.name, s.labels): list(s.samples) for s in store.series()}


# ----------------------------------------------------------------------
# Hypothesis programs over one registry
# ----------------------------------------------------------------------

LABELS = ("a", "b", "c")
GAUGE_VALUES = (0.0, -0.0, 0, 1.0, 1, 2.5, -1.0)
OBSERVATIONS = (0.003, 0.2, 0.7, 40.0, 500.0)

write = st.one_of(
    st.tuples(st.just("inc"), st.sampled_from(LABELS),
              st.sampled_from((0.0, 1.0, 3.0))),
    st.tuples(st.just("set"), st.sampled_from(LABELS),
              st.sampled_from(GAUGE_VALUES)),
    st.tuples(st.just("set_same"), st.sampled_from(LABELS), st.just(None)),
    st.tuples(st.just("dec"), st.sampled_from(LABELS),
              st.sampled_from((1.0, 0.5))),
    st.tuples(st.just("observe"), st.sampled_from(LABELS),
              st.sampled_from(OBSERVATIONS)),
    st.tuples(st.just("touch"), st.sampled_from(("counter", "gauge",
                                                 "histogram")),
              st.sampled_from(LABELS)),
    st.tuples(st.just("remove"), st.sampled_from(("counter", "gauge",
                                                  "histogram")),
              st.sampled_from(LABELS)),
    st.tuples(st.just("probe"), st.sampled_from(LABELS),
              st.sampled_from((None, 0.0, 1.0))),
    # len() stores a held tail; later reads must not tell.
    st.tuples(st.just("len"), st.sampled_from(("calls", "level", "lat",
                                               "lat_count", "up")),
              st.just(None)),
)

# One interval: the writes before a pass, then the clock step after it
# and the width of the windows read around it. An interval with no
# writes is common, so series are held across several passes.
interval = st.tuples(st.lists(write, max_size=4),
                     st.sampled_from((0.0, 0.5, 1.0, 3.0)),
                     st.sampled_from((1.0, 2.0, 4.0, 50.0)))

READ_NAMES = ("calls", "level", "lat", "lat_count", "up")


class Probes:
    """Health probes whose result a program sets; None means no data."""

    def __init__(self):
        self.results = {}

    def up_samples(self):
        return [(name, value) for name, value in sorted(self.results.items())
                if value is not None]


class Side:
    """One pipeline (the oracle or the real one) over its own registry."""

    def __init__(self, scraper_class, store_class, retention, max_samples,
                 prune_after):
        self.kernel = Kernel(seed=1)
        self.registry = MetricsRegistry()
        self.store = store_class()
        self.store.retention = retention
        self.store.max_samples = max_samples
        self.probes = Probes()
        self.scraper = scraper_class(self.kernel, self.store,
                                     registry=self.registry,
                                     health=self.probes)
        self.scraper.prune_after = prune_after
        self.counter = self.registry.counter("calls", ("ep",))
        self.gauge = self.registry.gauge("level", ("ep",))
        self.histogram = self.registry.histogram("lat", ("ep",))

    def family(self, kind):
        return {"counter": self.counter, "gauge": self.gauge,
                "histogram": self.histogram}[kind]

    def apply(self, op, a, b):
        if op == "inc":
            self.counter.labels(ep=a).inc(b)
        elif op == "set":
            self.gauge.labels(ep=a).set(b)
        elif op == "set_same":
            child = self.gauge.labels(ep=a)
            child.set(child.value)
        elif op == "dec":
            self.gauge.labels(ep=a).dec(b)
        elif op == "observe":
            self.histogram.labels(ep=a).observe(b)
        elif op == "touch":
            self.family(a).labels(ep=b)
        elif op == "remove":
            self.family(a).remove(ep=b)
        elif op == "probe":
            self.probes.results[a] = b
        elif op == "len":
            return [len(series) for series in self.store.series(a)]
        return None

    def reads(self, width):
        return [self.read(name, width) for name in READ_NAMES]

    def read(self, name, width):
        now = self.kernel.now
        out = []
        for series in self.store.series(name):
            out.append((series.labels, series.latest(),
                        series.latest_value(now, 2.0),
                        series.window(now - width, now),
                        series.window(now - width),
                        series.increase(now - width, now),
                        series.increase(now - width, now - width / 2)))
        return out


@settings(max_examples=300, deadline=None)
@given(program=st.lists(interval, min_size=1, max_size=12),
       retention=st.sampled_from((2.0, 5.0, 600.0)),
       max_samples=st.sampled_from((2, 3, 8, 2048)),
       prune_after=st.sampled_from((1.0, 4.0, 600.0)))
def test_dirty_scrape_reads_as_the_eager_one(program, retention, max_samples,
                                             prune_after):
    sides = (Side(EagerScraper, EagerStore, retention, max_samples,
                  prune_after),
             Side(MetricsScraper, TimeSeriesStore, retention, max_samples,
                  prune_after))
    eager, dirty = sides
    for writes, dt, width in program:
        for op, a, b in writes:
            assert dirty.apply(op, a, b) == eager.apply(op, a, b), (op, a)
        # Reads at the instant of the pass, before and after it.
        assert dirty.reads(width) == eager.reads(width)
        for side in sides:
            side.scraper.scrape_once()
        assert dirty.reads(width) == eager.reads(width)
        for side in sides:
            side.kernel.run(until=side.kernel.now + dt)
        assert dirty.reads(width) == eager.reads(width)
    assert dirty.scraper.series_pruned == eager.scraper.series_pruned
    assert dirty.scraper._stale_since == eager.scraper._stale_since
    lengths = {(s.name, s.labels): len(s) for s in dirty.store.series()}
    assert lengths == {(s.name, s.labels): len(s)
                       for s in eager.store.series()}
    assert materialised(dirty.store) == materialised(eager.store)


def test_held_reads_then_write_after_retention():
    # A series held longer than its retention reads its held ticks
    # only inside the retention, then stores exactly those.
    eager = Side(EagerScraper, EagerStore, 5.0, 2048, 600.0)
    dirty = Side(MetricsScraper, TimeSeriesStore, 5.0, 2048, 600.0)
    for side in (eager, dirty):
        side.counter.labels(ep="a").inc()
        for _ in range(20):
            side.scraper.scrape_once()
            side.kernel.run(until=side.kernel.now + 1.0)
        side.scraper.scrape_once()
    assert dirty.reads(8.0) == eager.reads(8.0)
    for side in (eager, dirty):
        side.counter.labels(ep="a").inc()
        side.kernel.run(until=side.kernel.now + 1.0)
        side.scraper.scrape_once()
    assert materialised(dirty.store) == materialised(eager.store)


def test_write_lint_rejects_a_write_around_the_methods(tmp_path):
    # The dirty list rests on every write going through the methods;
    # scripts/lint_metric_writes.py holds the rest of the tree to it.
    script = pathlib.Path(__file__).resolve().parents[2] / "scripts" \
        / "lint_metric_writes.py"
    spec = importlib.util.spec_from_file_location("lint_metric_writes",
                                                  script)
    lint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lint)
    assert lint.main() == 0
    bad = tmp_path / "bad.py"
    bad.write_text("def reset(child):\n"
                   "    child.value = 0.0\n"
                   "    child.samples.clear()\n"
                   "class Own:\n"
                   "    def __init__(self):\n"
                   "        self.value = 1\n")
    lint.ROOT = tmp_path
    found = lint.check_file(bad)
    assert [line.split(":")[1] for line in found] == ["2", "3"]


# ----------------------------------------------------------------------
# What a pass costs, counted
# ----------------------------------------------------------------------

def test_second_scrape_adds_only_the_written_children(monkeypatch):
    kernel = Kernel(seed=1)
    registry = MetricsRegistry()
    store = TimeSeriesStore()
    probes = Probes()
    probes.results = {"api": 1.0, "lcm": 1.0}
    scraper = MetricsScraper(kernel, store, registry=registry, health=probes)
    family = registry.counter("calls", ("ep",))
    children = [family.labels(ep=str(i)) for i in range(50)]
    scraper.scrape_once()

    adds = []
    original = TimeSeries.add

    def counting_add(self, time, value):
        adds.append(self.name)
        original(self, time, value)

    monkeypatch.setattr(TimeSeries, "add", counting_add)
    kernel.run(until=1.0)
    for child in children[:7]:
        child.inc()
        child.inc()  # a second write lists the child once
    scraper.scrape_once()
    # The scraper's own series: the pass counter and the series gauge
    # set after the previous pass. The kernel gauges are set again to
    # the values they hold (the kernel ran nothing), so they are held.
    own = {"monitoring_scrapes_total", "monitoring_series"}
    assert sorted(adds) == sorted(["calls"] * 7 + ["up"] * 2 + list(own))


NAN = float("nan")


@pytest.mark.parametrize("held, value, written", [
    (1.0, 1.0, False),
    (-0.0, -0.0, False),
    (7, 7, False),
    (1.0, 1, True),  # equal, but an int prints differently
    (1, 1.0, True),
    (True, 1, True),
    (0.0, -0.0, True),  # equal, but the sign prints
    (-0.0, 0.0, True),
    (0, -0.0, True),
    (NAN, NAN, True),  # never equal to itself
    (1.0, 2.0, True),
])
def test_a_gauge_set_to_the_value_it_holds_is_not_written(held, value,
                                                          written):
    registry = MetricsRegistry()
    gauge = registry.gauge("level")
    gauge.set(held)
    registry.changes()
    gauge.set(value)
    _born, listed, _removed = registry.changes()
    assert bool(listed) == written
    assert gauge.value is value


def test_held_gauge_keeps_type_sign_and_nan():
    """Sets that repeat a value, change only its type or sign, or are
    NaN: the held series stores what the eager one samples, value for
    value by ``repr``, since ``==`` cannot tell these apart."""
    sides = (Side(EagerScraper, EagerStore, 600.0, 2048, 600.0),
             Side(MetricsScraper, TimeSeriesStore, 600.0, 2048, 600.0))
    for value in (0.0, 0.0, -0.0, -0.0, 0, 0, 0.0, NAN, NAN, 1.0, 1, 1):
        for side in sides:
            side.gauge.labels(ep="a").set(value)
            side.scraper.scrape_once()
            side.kernel.run(until=side.kernel.now + 1.0)
    eager, dirty = (
        [repr(v) for _t, v in side.store.get("level", {"ep": "a"}).samples]
        for side in sides)
    assert dirty == eager
    assert dirty[:4] == ["0.0", "0.0", "-0.0", "-0.0"]


def test_increase_on_an_idle_held_series_never_builds_a_window(monkeypatch):
    kernel = Kernel(seed=1)
    registry = MetricsRegistry()
    store = TimeSeriesStore()
    scraper = MetricsScraper(kernel, store, registry, Probes())
    registry.counter("calls").inc(5)
    for tick in range(30):
        kernel.run(until=float(tick))
        scraper.scrape_once()
    series = store.get("calls")

    def no_window(self, start, end, tail):
        raise AssertionError("window() built for an idle held series")

    monkeypatch.setattr(TimeSeries, "_window", no_window)
    assert series.increase(20.0, 29.0) == 0.0
    assert series.increase(28.5, 29.0) is None  # one tick in the window
    assert len(series._samples) == 1  # nothing was materialised


# ----------------------------------------------------------------------
# The platform, run once on each pipeline
# ----------------------------------------------------------------------

class EagerPlatformScraper(EagerScraper):
    """``stack.PlatformScraper`` on the eager oracle."""

    def __init__(self, platform, store):
        super().__init__(platform.kernel, store,
                         interval=platform.config.scrape_interval,
                         registry=platform.metrics, health=platform.health)
        self.cluster = platform.k8s
        self._g_gpus_total = platform.metrics.gauge(
            "cluster_gpus_total", help="GPUs in the cluster")
        self._g_gpus_allocated = platform.metrics.gauge(
            "cluster_gpus_allocated", help="GPUs currently allocated to pods")

    def scrape_once(self):
        capacity = self.cluster.capacity_summary()
        self._g_gpus_total.set(capacity["gpus_total"])
        self._g_gpus_allocated.set(capacity["gpus_allocated"])
        super().scrape_once()


def run_quick_chaos(seed):
    from perfbench.measure import timeline_digest
    from perfbench.workloads import WORKLOADS, drive, make_platform

    workload = WORKLOADS["chaos"].quick()
    platform = make_platform(workload, seed)
    outcome = drive(platform, workload, seed)
    return {
        "digest": timeline_digest(platform, outcome.docs),
        "series": materialised(platform.monitoring.store),
        "alerts": platform.monitoring.engine.history,
        "events": [(e.type, e.reason, e.kind, e.name, e.message, e.count,
                    e.first_time, e.last_time)
                   for e in platform.events.events()],
        "events_processed": platform.kernel.events_processed,
    }


def test_platform_run_equals_the_eager_oracle(monkeypatch):
    seed = 173
    dirty = run_quick_chaos(seed)
    with monkeypatch.context() as patch:
        patch.setattr(stack_module, "PlatformScraper", EagerPlatformScraper)
        patch.setattr(stack_module, "TimeSeriesStore", EagerStore)
        eager = run_quick_chaos(seed)
    assert dirty["digest"] == eager["digest"]
    assert dirty["events_processed"] == eager["events_processed"]
    assert dirty["alerts"] == eager["alerts"]
    assert dirty["events"] == eager["events"]
    assert dirty["series"].keys() == eager["series"].keys()
    for key, samples in eager["series"].items():
        assert dirty["series"][key] == samples, key
