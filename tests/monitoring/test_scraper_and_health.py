"""Unit tests for the scrape pipeline and health registry."""

import pytest

from repro.monitoring import HealthRegistry, MetricsScraper
from repro.monitoring.health import Probe
from repro.sim import Kernel, MetricsRegistry
from repro.sim.timeseries import TimeSeriesStore


@pytest.fixture
def kernel():
    return Kernel(seed=2)


@pytest.fixture
def store():
    return TimeSeriesStore()


class TestScraper:
    def test_counters_and_gauges_sampled(self, kernel, store):
        registry = MetricsRegistry()
        registry.counter("requests_total").inc(3)
        registry.gauge("depth", ("name",)).labels(name="q").set(7)
        scraper = MetricsScraper(kernel, store, registry, HealthRegistry())
        scraper.scrape_once()
        assert store.get("requests_total").values() == [3.0]
        assert store.get("depth", {"name": "q"}).values() == [7.0]

    def test_histogram_count_sum_quantiles(self, kernel, store):
        registry = MetricsRegistry()
        hist = registry.histogram("rpc_seconds")
        for value in (0.1, 0.2, 0.3):
            hist.observe(value)
        MetricsScraper(kernel, store, registry, HealthRegistry()).scrape_once()
        assert store.get("rpc_seconds_count").values() == [3.0]
        assert store.get("rpc_seconds_sum").values() == [pytest.approx(0.6)]
        p99 = store.get("rpc_seconds", {"quantile": "p99"})
        assert p99 is not None and 0.25 <= p99.values()[0] <= 0.5

    def test_empty_histogram_yields_no_quantile_series(self, kernel, store):
        registry = MetricsRegistry()
        registry.histogram("rpc_seconds").labels()
        MetricsScraper(kernel, store, registry, HealthRegistry()).scrape_once()
        assert store.get("rpc_seconds_count").values() == [0.0]
        assert store.get("rpc_seconds", {"quantile": "p99"}) is None

    def test_vanished_series_marked_stale(self, kernel, store):
        registry = MetricsRegistry()
        health = HealthRegistry()
        state = {"present": True}

        def check():
            if not state["present"]:
                return None
            return {"live": True, "ready": True}

        health.register("api", check)
        scraper = MetricsScraper(kernel, store, registry, health)
        scraper.scrape_once()
        assert store.get("up", {"component": "api"}).latest_value() == 1.0
        state["present"] = False
        kernel.run(until=1.0)
        scraper.scrape_once()
        assert store.get("up", {"component": "api"}).latest_value() is None

    def test_periodic_loop_on_kernel(self, kernel, store):
        registry = MetricsRegistry()
        registry.counter("ticks").inc()
        scraper = MetricsScraper(kernel, store, registry, HealthRegistry(),
                                 interval=0.5)
        scraper.start()
        kernel.run(until=2.2)
        scraper.stop()
        # t = 0, .5, 1, 1.5, 2
        assert registry.counter("monitoring_scrapes_total").value == 5

    def test_rejects_bad_interval(self, kernel, store):
        with pytest.raises(ValueError):
            MetricsScraper(kernel, store, MetricsRegistry(), HealthRegistry(),
                           interval=0)


class TestHealthRegistry:
    def test_snapshot_aggregates(self):
        registry = HealthRegistry()
        registry.register("good", lambda: {"live": True, "ready": True})
        registry.register("degraded",
                          lambda: {"live": True, "ready": False, "detail": "1/2"})
        snap = registry.snapshot()
        assert snap["status"] == "degraded"
        assert snap["components"]["good"]["status"] == "ok"
        assert snap["components"]["degraded"]["status"] == "degraded"
        assert snap["components"]["degraded"]["detail"] == "1/2"

    def test_non_core_probe_does_not_gate_aggregate(self):
        registry = HealthRegistry()
        registry.register("core", lambda: {"live": True, "ready": True})
        registry.register_probe(Probe(
            "job-group", lambda: {"live": False, "ready": False}, core=False))
        assert registry.snapshot()["status"] == "ok"

    def test_unknown_probe_reports_no_up_sample(self):
        registry = HealthRegistry()
        registry.register("late", lambda: None)
        assert registry.snapshot()["components"]["late"] == {"status": "unknown"}
        assert registry.up_samples() == []

    def test_up_iff_live_and_ready(self):
        registry = HealthRegistry()
        registry.register("full", lambda: {"live": True, "ready": True})
        registry.register("partial", lambda: {"live": True, "ready": False})
        assert dict(registry.up_samples()) == {"full": 1.0, "partial": 0.0}

    def test_latch_suppresses_boot_then_reports(self):
        state = {"ready": False}
        registry = HealthRegistry()
        registry.register("api",
                          lambda: {"live": True, "ready": state["ready"]},
                          latch=True)
        # Booting: no data, no false outage.
        assert registry.up_samples() == []
        state["ready"] = True
        assert registry.up_samples() == [("api", 1.0)]
        # After first readiness, a dip IS an outage.
        state["ready"] = False
        assert registry.up_samples() == [("api", 0.0)]

    def test_duplicate_name_rejected(self):
        registry = HealthRegistry()
        registry.register("x", lambda: None)
        with pytest.raises(ValueError):
            registry.register("x", lambda: None)
