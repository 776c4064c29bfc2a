"""The scrape pipeline: registry snapshots -> bounded time series.

A simulated Prometheus: every ``interval`` simulated seconds the
scraper walks the platform's :class:`MetricsRegistry` and health
probes and appends one sample per series to the
:class:`~repro.sim.timeseries.TimeSeriesStore`.

Collection is pure in-memory reading — no RPCs, no RNG — so enabling
the scraper cannot perturb the simulated job timeline.

Histograms are collected as ``<name>_count``, ``<name>_sum`` and
quantile-labeled gauges (``quantile="p50"|"p95"|"p99"``). Quantiles
are *estimated from the cumulative buckets* (Prometheus'
``histogram_quantile``), not from the raw samples: exact percentiles
re-sort the observation list, which is far too expensive to pay per
scrape tick on hot RPC histograms.

Series that existed on the previous scrape but are absent from this
one (a label set that vanished, a probe with no data) receive a
staleness marker, so downstream alert rules stop seeing their last
value.

Each (metric child -> series) emission runs thousands of times per
simulated minute, so its plan — the derived series names, the label
dict, the canonical staleness key, and eventually the series object
itself — is computed once per child and cached on a
:class:`_SeriesHandle`; a scrape tick then reduces to value reads and
ring-buffer appends.
"""

from ..sim.periodic import Periodic, Polling
from ..sim.timeseries import canonical_labels


class _SeriesHandle:
    """Cached emission target: one (name, labels) series."""

    __slots__ = ("name", "labels", "key", "series")

    def __init__(self, name, labels):
        self.name = name
        self.labels = canonical_labels(labels)
        self.key = (name, self.labels)
        self.series = None  # resolved on first emission


class MetricsScraper(Polling):
    """Periodic collector of metrics + health into the series store."""

    QUANTILES = (("p50", 50), ("p95", 95), ("p99", 99))

    # One registry-vs-plan-cache sweep per this many scrapes: plans of
    # pruned metric children are dead weight, but walking the registry
    # to find them is not free, so do it rarely.
    PLAN_GC_EVERY = 64

    def __init__(self, kernel, store, interval=1.0, registry=None,
                 health=None, prune_after=None):
        self.kernel = kernel
        self.store = store
        self.interval = interval
        self._loop = Periodic(kernel, "metrics-scraper", self.scrape_once,
                              interval)
        self.registry = registry
        self.health = health
        # A series stale this long is dropped from the store entirely
        # (its source endpoint is gone for good, not rebooting).
        self.prune_after = prune_after if prune_after is not None \
            else store.retention
        self.series_pruned = 0
        self.scrape_count = 0
        self._last_keys = set()
        self._stale_since = {}  # (name, labels) -> time marked stale
        self._plans = {}  # (family name, labelvalues) -> emit plan
        self._quantile_cache = {}  # plan key -> (count, [q values])
        self._up_handles = {}  # component -> _SeriesHandle
        if registry is not None:
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
        else:
            self._m_scrapes = self._m_series = None
            self._g_events = self._g_dead = self._g_dead_ratio = None
        # Shard-boundary gauges, registered lazily on the first scrape
        # that sees ``kernel.shard`` bound: an unsharded platform (the
        # overwhelmingly common case) must not grow empty shard series.
        self._shard_handles = None

    def _shard_gauges(self):
        handles = self._shard_handles
        if handles is None:
            messages = self.registry.gauge(
                "shard_boundary_messages_total", ("direction",),
                help="Boundary messages crossed by this shard's port")
            handles = self._shard_handles = (
                messages.labels(direction="sent"),
                messages.labels(direction="received"),
                self.registry.gauge(
                    "shard_lookahead_stalls_total",
                    help="Windows this shard had work but none executable"),
                self.registry.gauge(
                    "shard_merge_lag_seconds",
                    help="Local-clock lag behind the global window start"),
            )
        return handles

    # ------------------------------------------------------------------

    def _emit(self, handle, now, value, seen):
        series = handle.series
        if series is None:
            series = handle.series = self.store._get_or_create(
                handle.name, handle.labels)
        series.add(now, value)
        seen.add(handle.key)

    def scrape_once(self):
        """One scrape pass; safe to call directly from tests."""
        now = self.kernel.now
        seen = set()

        if self._g_events is not None:
            kernel = self.kernel
            self._g_events.set(float(kernel.events_processed))
            self._g_dead.set(float(kernel.dead_entries_skipped))
            self._g_dead_ratio.set(kernel.dead_entry_ratio)
            shard = kernel.shard
            if shard is not None:
                sent, received, stalls, lag = self._shard_gauges()
                sent.set(float(shard.messages_sent))
                received.set(float(shard.messages_received))
                stalls.set(float(shard.lookahead_stalls))
                lag.set(shard.merge_lag)

        if self.registry is not None:
            self._collect_registry(now, seen)
        if self.health is not None:
            handles = self._up_handles
            for component, up in self.health.up_samples():
                handle = handles.get(component)
                if handle is None:
                    handle = handles[component] = _SeriesHandle(
                        "up", {"component": component})
                self._emit(handle, now, up, seen)

        for key in self._last_keys - seen:
            self.store.mark_stale(key[0], key[1], now)
            self._stale_since.setdefault(key, now)
        self._last_keys = seen
        self._prune_stale(now, seen)
        self.scrape_count += 1
        if self.registry is not None \
                and self.scrape_count % self.PLAN_GC_EVERY == 0:
            self._gc_plans()
        if self._m_scrapes is not None:
            self._m_scrapes.inc()
            self._m_series.set(len(self.store))

    def _prune_stale(self, now, seen):
        """Forget series whose source stayed gone past ``prune_after``.

        A staleness marker already hides a vanished series from rule
        evaluation; this goes further and reclaims the series (and the
        tracking entry) once it is clear the label set is not coming
        back, so endpoint churn cannot grow the store without bound. A
        source that *does* come back before the deadline simply drops
        its tracking entry and keeps its history."""
        stale = self._stale_since
        if not stale:
            return
        for key in [k for k in stale if k in seen]:
            del stale[key]
        cutoff = now - self.prune_after
        pruned = set()
        for key in [k for k, since in stale.items() if since <= cutoff]:
            del stale[key]
            if self.store.remove(key[0], key[1]):
                self.series_pruned += 1
                pruned.add(key)
        if pruned:
            # A cached handle still pointing at a pruned series would
            # write into an orphaned ring buffer if the source came
            # back much later; drop the resolution so the next emission
            # re-creates the series in the store.
            self._invalidate_handles(pruned)

    def _invalidate_handles(self, pruned):
        def invalidate(handle):
            if handle.key in pruned:
                handle.series = None

        for plan in self._plans.values():
            if isinstance(plan, _SeriesHandle):
                invalidate(plan)
            else:
                count_handle, sum_handle, quantile_plan = plan
                invalidate(count_handle)
                invalidate(sum_handle)
                for _q, handle in quantile_plan:
                    invalidate(handle)
        for handle in self._up_handles.values():
            invalidate(handle)

    def _gc_plans(self):
        """Drop emission plans for metric children that no longer
        exist (pruned via ``_Family.remove``); their series went stale
        and will be pruned by ``_prune_stale`` independently."""
        live = set()
        for name in self.registry.names():
            metric = self.registry.get(name)
            for labelvalues, _child in metric.children():
                live.add((name, labelvalues))
        for plan_key in [k for k in self._plans if k not in live]:
            del self._plans[plan_key]
            self._quantile_cache.pop(plan_key, None)

    def _collect_registry(self, now, seen):
        plans = self._plans
        for name in self.registry.names():
            metric = self.registry.get(name)
            is_histogram = metric.kind == "histogram"
            for labelvalues, child in metric.children():
                plan_key = (name, labelvalues)
                plan = plans.get(plan_key)
                if plan is None:
                    labels = dict(zip(metric.labelnames, labelvalues))
                    if is_histogram:
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
                    plans[plan_key] = plan
                if is_histogram:
                    count_handle, sum_handle, quantile_plan = plan
                    count = child.count
                    self._emit(count_handle, now, float(count), seen)
                    self._emit(sum_handle, now, child.total, seen)
                    if count:
                        # No new observations since the last scrape means
                        # identical buckets, hence identical quantiles —
                        # skip the percentile walk for idle histograms.
                        cached = self._quantile_cache.get(plan_key)
                        if cached is None or cached[0] != count:
                            cached = (count, [child.bucket_percentile(q)
                                              for q, _h in quantile_plan])
                            self._quantile_cache[plan_key] = cached
                        values = cached[1]
                        for i, (_q, handle) in enumerate(quantile_plan):
                            self._emit(handle, now, values[i], seen)
                else:
                    self._emit(plan, now, child.value, seen)
