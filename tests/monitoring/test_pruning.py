"""Label-cardinality bounding: metric-child and series pruning when an
endpoint disappears, and counter-reset tolerance in the windowed
consumers that read the recreated children."""

import pytest

from repro.grpcnet import LatencyModel, Network, Server
from repro.monitoring import Increase, MetricsScraper
from repro.sim import Kernel, MetricsRegistry
from repro.sim.timeseries import TimeSeriesStore, counter_increase

from ..integration.conftest import make_platform, manifest


@pytest.fixture
def kernel():
    return Kernel(seed=3)


@pytest.fixture
def store():
    return TimeSeriesStore()


class TestCounterIncrease:
    def test_monotone_counter(self):
        points = [(0.0, 0.0), (1.0, 3.0), (2.0, 7.0)]
        assert counter_increase(points) == 7.0

    def test_reset_counts_from_the_new_value(self):
        # 0 -> 5, reset, 2 -> 4: the true increase is 5 + 2 + 2.
        points = [(0.0, 0.0), (1.0, 5.0), (2.0, 2.0), (3.0, 4.0)]
        assert counter_increase(points) == 9.0

    def test_single_sample_is_zero(self):
        assert counter_increase([(0.0, 4.0)]) == 0.0

    def test_increase_expression_tolerates_reset(self, store):
        # An endpoint restart recreates its pruned child at zero; the
        # alert expression must not read that as a negative increase.
        for t, v in ((0.0, 0.0), (2.0, 6.0), (4.0, 1.0), (6.0, 2.0)):
            store.add("errors_total", {}, t, v)
        # 0 -> 6, reset, 1 -> 2: the true increase is 6 + 1 + 1.
        result = Increase("errors_total", 7.0).eval(store, 6.0, None)
        assert result == {(): 8.0}


class TestStoreRemove:
    def test_remove_drops_one_labelset(self, store):
        store.add("m", {"ep": "a"}, 0.0, 1.0)
        store.add("m", {"ep": "b"}, 0.0, 2.0)
        assert store.remove("m", {"ep": "a"})
        assert store.get("m", {"ep": "a"}) is None
        assert store.get("m", {"ep": "b"}).values() == [2.0]

    def test_remove_absent_is_false(self, store):
        assert not store.remove("m", {"ep": "a"})
        store.add("m", {"ep": "a"}, 0.0, 1.0)
        assert store.remove("m", {"ep": "a"})
        assert not store.remove("m", {"ep": "a"})

    def test_readd_after_remove_starts_fresh(self, store):
        store.add("m", {}, 0.0, 5.0)
        store.remove("m", {})
        store.add("m", {}, 1.0, 1.0)
        assert store.get("m").values() == [1.0]


class TestFamilyRemove:
    def test_remove_then_relabel_resets_to_zero(self):
        registry = MetricsRegistry()
        family = registry.counter("calls_total", ("ep",))
        family.labels(ep="a").inc(5)
        family.remove(ep="a")
        assert [lv for lv, _c in family.children()] == []
        assert family.labels(ep="a").value == 0.0

    def test_remove_absent_child_is_noop(self):
        registry = MetricsRegistry()
        registry.counter("calls_total", ("ep",)).remove(ep="ghost")

    def test_remove_validates_label_schema(self):
        registry = MetricsRegistry()
        family = registry.counter("calls_total", ("ep",))
        with pytest.raises(ValueError):
            family.remove(wrong="a")
        with pytest.raises(ValueError):
            family.remove()


class TestScraperPruning:
    def make(self, kernel, store, prune_after=5.0):
        registry = MetricsRegistry()
        scraper = MetricsScraper(kernel, store, registry=registry,
                                 prune_after=prune_after)
        return registry, scraper

    def test_vanished_child_is_pruned_after_deadline(self, kernel, store):
        registry, scraper = self.make(kernel, store)
        family = registry.counter("calls_total", ("ep",))
        family.labels(ep="a").inc()
        family.labels(ep="b").inc()
        scraper.scrape_once()
        family.remove(ep="a")
        kernel.run(until=1.0)
        scraper.scrape_once()  # marks stale
        assert store.get("calls_total", {"ep": "a"}) is not None
        kernel.run(until=10.0)
        scraper.scrape_once()  # past prune_after: reclaimed
        assert store.get("calls_total", {"ep": "a"}) is None
        assert store.get("calls_total", {"ep": "b"}) is not None
        assert scraper.series_pruned == 1
        assert scraper._stale_since == {}

    def test_source_returning_early_keeps_history(self, kernel, store):
        registry, scraper = self.make(kernel, store)
        family = registry.counter("calls_total", ("ep",))
        family.labels(ep="a").inc(3)
        scraper.scrape_once()
        family.remove(ep="a")
        kernel.run(until=1.0)
        scraper.scrape_once()
        family.labels(ep="a").inc()  # back before the deadline
        kernel.run(until=2.0)
        scraper.scrape_once()
        kernel.run(until=20.0)
        scraper.scrape_once()
        series = store.get("calls_total", {"ep": "a"})
        assert series is not None
        assert 3.0 in series.values()  # history survived
        assert scraper.series_pruned == 0

    def test_pruned_handle_recreates_live_series(self, kernel, store):
        # The emit plan caches a direct series pointer; after pruning,
        # a returning source must write into a *store-registered*
        # series, not the orphaned ring buffer.
        registry, scraper = self.make(kernel, store)
        family = registry.counter("calls_total", ("ep",))
        family.labels(ep="a").inc(5)
        scraper.scrape_once()
        family.remove(ep="a")
        kernel.run(until=1.0)
        scraper.scrape_once()
        kernel.run(until=10.0)
        scraper.scrape_once()
        assert store.get("calls_total", {"ep": "a"}) is None
        family.labels(ep="a").inc()  # endpoint restarted
        kernel.run(until=11.0)
        scraper.scrape_once()
        series = store.get("calls_total", {"ep": "a"})
        assert series is not None
        assert series.values() == [1.0]

    def test_up_series_of_gone_component_pruned(self, kernel, store):
        class FakeHealth:
            def __init__(self):
                self.components = ["api-0"]

            def up_samples(self):
                return [(c, 1.0) for c in self.components]

        health = FakeHealth()
        scraper = MetricsScraper(kernel, store, health=health,
                                 prune_after=5.0)
        scraper.scrape_once()
        assert store.get("up", {"component": "api-0"}) is not None
        health.components = []
        kernel.run(until=1.0)
        scraper.scrape_once()
        kernel.run(until=10.0)
        scraper.scrape_once()
        assert store.get("up", {"component": "api-0"}) is None
        # A re-registered component with the same name starts a fresh
        # series through the invalidated handle.
        health.components = ["api-0"]
        kernel.run(until=11.0)
        scraper.scrape_once()
        assert store.get("up", {"component": "api-0"}).values() == [1.0]

    def test_plan_gc_drops_dead_children(self, kernel, store):
        registry, scraper = self.make(kernel, store)
        family = registry.counter("calls_total", ("ep",))
        family.labels(ep="a").inc()
        family.labels(ep="b").inc()
        scraper.scrape_once()
        assert ("calls_total", ("a",)) in scraper._plans
        family.remove(ep="a")
        scraper._gc_plans()
        assert ("calls_total", ("a",)) not in scraper._plans
        assert ("calls_total", ("b",)) in scraper._plans


class TestNetworkEndpointPruning:
    def make_network(self, kernel):
        registry = MetricsRegistry()
        network = Network(kernel, latency=LatencyModel(base=0.001,
                                                       jitter=0.0),
                          metrics=registry)
        return registry, network

    def call_echo(self, kernel, network, address="svc"):
        def caller():
            return (yield network.call(address, "echo", "hi"))

        return kernel.run_until_complete(kernel.spawn(caller()))

    def test_unregister_prunes_endpoint_children(self, kernel):
        registry, network = self.make_network(kernel)
        server = Server(kernel, network, "svc")
        server.add_method("echo", lambda request: {"echo": request})
        server.start()
        self.call_echo(kernel, network)
        requests = registry.get("rpc_endpoint_requests_total")
        latency = registry.get("rpc_endpoint_latency_seconds_total")
        handled = registry.get("rpc_server_handled_total")
        assert any(lv[0] == "svc" for lv, _c in requests.children())
        assert any(lv[0] == "svc" for lv, _c in latency.children())
        assert any(lv[0] == "svc" for lv, _c in handled.children())

        network.unregister("svc")
        for family in (requests, latency, handled):
            assert not any(lv[0] == "svc" for lv, _c in family.children())
        # Per-method client families are endpoint-free and survive.
        assert registry.get("rpc_client_calls_total").children()

    def test_reregistered_endpoint_counts_from_zero(self, kernel):
        registry, network = self.make_network(kernel)
        server = Server(kernel, network, "svc")
        server.add_method("echo", lambda request: {"echo": request})
        server.start()
        self.call_echo(kernel, network)
        self.call_echo(kernel, network)
        network.unregister("svc")

        replacement = Server(kernel, network, "svc")
        replacement.add_method("echo", lambda request: {"echo": request})
        replacement.start()
        self.call_echo(kernel, network)
        handled = registry.get("rpc_server_handled_total")
        assert handled.labels(endpoint="svc").value == 1.0  # reset, not 3

    def test_unregister_without_metrics_is_safe(self, kernel):
        network = Network(kernel, latency=LatencyModel(base=0.001,
                                                       jitter=0.0))
        server = Server(kernel, network, "svc")
        server.add_method("echo", lambda request: {"echo": request})
        server.start()
        self.call_echo(kernel, network)
        network.unregister("svc")
        assert network.lookup("svc") is None


class TestFinishedJobsLeaveNoSeries:
    """A scrape costs what is alive: per-job reconcilers label their
    workqueue series by kind and the log collector retires its child,
    so neither the registry walk nor the store grows with the number
    of jobs that have *finished*."""

    @staticmethod
    def run_jobs(platform, client, count):
        for _ in range(count):
            _job_id, doc = platform.run_process(
                client.run_to_completion(manifest(target_steps=20)),
                limit=50_000)
            assert doc["status"] == "COMPLETED"
        platform.run_for(30.0)  # teardown, then a few scrapes

    @staticmethod
    def census(platform):
        registry = platform.metrics
        children = sum(len(registry.get(name).children())
                       for name in registry.names())
        # A histogram's quantile series start with its first
        # observation (an idle LCM replica has none yet); its _count
        # and _sum series start with the child and are what is compared.
        keys = {(s.name, s.labels) for s in platform.monitoring.store.series()
                if "quantile" not in dict(s.labels)}
        return children, keys

    def test_series_independent_of_finished_jobs(self):
        platform = make_platform()
        client = platform.client("team-a")
        self.run_jobs(platform, client, 2)
        children_2, keys_2 = self.census(platform)
        self.run_jobs(platform, client, 6)
        children_8, keys_8 = self.census(platform)

        assert children_8 == children_2

        def workqueue(keys):
            return {key for key in keys if key[0].startswith("workqueue_")}

        assert workqueue(keys_8) == workqueue(keys_2)
        assert {"guardian", "controller"} <= {
            dict(labels)["name"] for _name, labels in workqueue(keys_8)}

        # All that a finished job leaves in the store is its log
        # collector's series, stale until prune_after reclaims it.
        grown = keys_8 - keys_2
        assert {name for name, _labels in grown} == {
            "logs_collected_lines_total"}
        assert len(grown) == 6
        store = platform.monitoring.store
        for name, labels in grown:
            assert store.get(name, labels).latest_value() is None
