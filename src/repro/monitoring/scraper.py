"""The scrape pipeline: registry changes -> bounded time series.

A simulated Prometheus: every ``interval`` simulated seconds the
scraper reads the platform's :class:`MetricsRegistry` and health
probes into the :class:`~repro.sim.timeseries.TimeSeriesStore`. Each
pass is a tick of the scraper's :class:`~repro.sim.timeseries.TickLog`.

A pass stores what changed. The registry hands over the metric
children created, written or removed since the previous pass
(:meth:`MetricsRegistry.changes`); each created or written child gets
a sample at this tick, and every other live series is *held*: its last
value stands for this tick too (:meth:`TimeSeries.hold`), as a sample
per series per tick would have repeated it. Health probes are sampled
every pass. A series reads the same either way, sample for sample.

Collection is pure in-memory reading — no RPCs, no RNG — so enabling
the scraper cannot perturb the simulated job timeline.

Histograms are collected as ``<name>_count``, ``<name>_sum`` and
quantile-labeled gauges (``quantile="p50"|"p95"|"p99"``). Quantiles
are *estimated from the cumulative buckets* (Prometheus'
``histogram_quantile``), not from the raw samples: exact percentiles
re-sort the observation list, which is far too expensive to pay per
scrape tick on hot RPC histograms.

A series whose source went away (a removed metric child, a probe with
no data) receives a staleness marker at the next pass, so downstream
alert rules stop seeing its last value.

Each child's emission plan — the derived series names, the label
dict, the canonical staleness key, and eventually the series object
itself — is computed once, when the child is first seen, and cached on
:class:`_SeriesHandle` objects; a removed child drops its plan.
"""

from ..sim.periodic import Periodic, Polling
from ..sim.timeseries import TickLog, canonical_labels


class _SeriesHandle:
    """Cached emission target: one (name, labels) series."""

    __slots__ = ("name", "labels", "key", "series")

    def __init__(self, name, labels):
        self.name = name
        self.labels = canonical_labels(labels)
        self.key = (name, self.labels)
        self.series = None  # resolved on first emission


def _handles(plan):
    if isinstance(plan, _SeriesHandle):
        return (plan,)
    count_handle, sum_handle, quantile_plan = plan
    return (count_handle, sum_handle) + tuple(h for _q, h in quantile_plan)


class MetricsScraper(Polling):
    """Periodic collector of metrics + health into the series store."""

    QUANTILES = (("p50", 50), ("p95", 95), ("p99", 99))

    def __init__(self, kernel, store, registry, health, interval=1.0):
        self.kernel = kernel
        self.store = store
        self.interval = interval
        self._loop = Periodic(kernel, "metrics-scraper", self.scrape_once,
                              interval)
        self.registry = registry
        self.health = health
        # A series stale this long is dropped from the store entirely
        # (its source endpoint is gone for good, not rebooting): what
        # the store keeps of it anyway.
        self.prune_after = store.retention
        self.series_pruned = 0
        self.ticks = TickLog()
        self._live = set()  # keys sampled and not stale since
        self._stale_since = {}  # (name, labels) -> time marked stale
        self._plans = {}  # metric child -> emit plan
        self._up_handles = {}  # component -> _SeriesHandle
        self._up_components = set()  # components sampled last pass
        self._m_scrapes = registry.counter(
            "monitoring_scrapes_total", help="Completed scrape passes")
        self._m_series = registry.gauge(
            "monitoring_series", help="Live series in the scrape store")
        # Kernel perf counters, published like any other scraped
        # family (setting gauges is pure bookkeeping — no events).
        self._g_events = registry.gauge(
            "kernel_events_processed_total",
            help="Heap entries popped by the simulation kernel")
        self._g_dead = registry.gauge(
            "kernel_dead_entries_total",
            help="Cancelled timers skipped at pop (lazy heap deletion)")
        self._g_dead_ratio = registry.gauge(
            "kernel_dead_entry_ratio",
            help="Fraction of heap pops that were cancelled timers")

    # ------------------------------------------------------------------

    def _emit(self, handle, now, value):
        series = handle.series
        if series is None:
            series = handle.series = self.store._get_or_create(
                handle.name, handle.labels)
        series.hold(now, value, self.ticks)
        key = handle.key
        if key not in self._live:
            self._live.add(key)
            self._stale_since.pop(key, None)  # the source came back

    def _leave(self, key, gone):
        """A live key lost its source; it is marked stale after the
        pass unless something samples it again first."""
        if key in self._live:
            self._live.discard(key)
            gone.append(key)

    def scrape_once(self):
        """One scrape pass; safe to call directly from tests."""
        now = self.kernel.now
        gone = []

        kernel = self.kernel
        self._g_events.set(float(kernel.events_processed))
        self._g_dead.set(float(kernel.dead_entries_skipped))
        self._g_dead_ratio.set(kernel.dead_entry_ratio)

        self._collect_registry(now, gone)
        self._collect_health(now, gone)

        for key in gone:
            if key not in self._live:
                self.store.mark_stale(key[0], key[1], now)
                self._stale_since.setdefault(key, now)
        self.ticks.append(now, self.store.retention)
        self._prune_stale(now)
        self._m_scrapes.inc()
        self._m_series.set(len(self.store))

    def _collect_health(self, now, gone):
        handles = self._up_handles
        components = set()
        for component, up in self.health.up_samples():
            handle = handles.get(component)
            if handle is None:
                handle = handles[component] = _SeriesHandle(
                    "up", {"component": component})
            self._emit(handle, now, up)
            components.add(component)
        for component in self._up_components - components:
            self._leave(handles[component].key, gone)
        self._up_components = components

    def _prune_stale(self, now):
        """Forget series whose source stayed gone past ``prune_after``.

        A staleness marker already hides a vanished series from rule
        evaluation; this goes further and reclaims the series (and the
        tracking entry) once it is clear the label set is not coming
        back, so endpoint churn cannot grow the store without bound. A
        source that *does* come back before the deadline has already
        dropped its tracking entry and kept its history."""
        stale = self._stale_since
        if not stale:
            return
        cutoff = now - self.prune_after
        for key in [k for k, since in stale.items() if since <= cutoff]:
            del stale[key]
            if self.store.remove(key[0], key[1]):
                self.series_pruned += 1
                if key[0] == "up":
                    # A cached handle still pointing at the pruned
                    # series would write into an orphaned ring buffer
                    # if the component came back; let the next
                    # emission re-create the series in the store. A
                    # metric child's handles went with its plan.
                    for handle in self._up_handles.values():
                        if handle.key == key:
                            handle.series = None

    def _collect_registry(self, now, gone):
        born, written, removed = self.registry.changes()
        plans = self._plans
        for child in removed:
            plan = plans.pop(child, None)
            if plan is not None:
                for handle in _handles(plan):
                    self._leave(handle.key, gone)
        for metric, labelvalues, child in born:
            if metric._children.get(labelvalues) is not child:
                continue  # removed before any pass saw it
            labels = dict(zip(metric.labelnames, labelvalues))
            name = metric.name
            if metric.kind == "histogram":
                plan = (
                    _SeriesHandle(f"{name}_count", labels),
                    _SeriesHandle(f"{name}_sum", labels),
                    tuple(
                        (q, _SeriesHandle(
                            name, {**labels, "quantile": quantile}))
                        for quantile, q in self.QUANTILES
                    ),
                )
            else:
                plan = _SeriesHandle(name, labels)
            plans[child] = plan
            self._sample(plan, child, now)
        for child in written:
            plan = plans.get(child)
            if plan is not None:  # None: removed since it was written
                self._sample(plan, child, now)

    def _sample(self, plan, child, now):
        if isinstance(plan, _SeriesHandle):
            self._emit(plan, now, child.value)
            return
        count_handle, sum_handle, quantile_plan = plan
        count = child.count
        self._emit(count_handle, now, float(count))
        self._emit(sum_handle, now, child.total)
        if count:
            for q, handle in quantile_plan:
                self._emit(handle, now, child.bucket_percentile(q))
