"""Unit tests for metrics, tracing and fault injection."""

import math

import pytest

from repro.sim import FaultInjector, Kernel, MetricsRegistry, Tracer

from ..observers import Observers


@pytest.fixture
def kernel():
    return Kernel(seed=3)


class TestMetrics:
    def test_counter_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge_up_down(self):
        gauge = MetricsRegistry().gauge("inflight")
        gauge.inc()
        gauge.inc()
        gauge.dec()
        assert gauge.value == 1
        gauge.set(10)
        assert gauge.value == 10

    def test_histogram_stats(self):
        histogram = MetricsRegistry().histogram("latency")
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.mean == 2.5
        assert histogram.minimum == 1.0
        assert histogram.maximum == 4.0
        assert histogram.percentile(50) == 2.0
        assert histogram.percentile(100) == 4.0

    def test_empty_histogram_is_nan(self):
        histogram = MetricsRegistry().histogram("empty")
        assert math.isnan(histogram.mean)
        assert math.isnan(histogram.percentile(50))

    def test_percentile_bounds_checked(self):
        histogram = MetricsRegistry().histogram("h")
        histogram.observe(1)
        with pytest.raises(ValueError):
            histogram.percentile(101)

    def test_same_name_same_metric(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(2)
        registry.histogram("b").observe(5)
        snap = registry.snapshot()
        assert snap["a"] == 2
        assert snap["b"]["count"] == 1
        assert registry.names() == ["a", "b"]

    def test_snapshot_includes_percentiles(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat")
        for value in range(1, 101):
            hist.observe(float(value))
        snap = registry.snapshot()["lat"]
        assert snap["p50"] == 50.0
        assert snap["p95"] == 95.0
        assert snap["p99"] == 99.0

    def test_percentile_cache_invalidated_on_observe(self):
        hist = MetricsRegistry().histogram("h")
        hist.observe(10.0)
        assert hist.percentile(50) == 10.0
        assert hist.percentile(99) == 10.0  # served from the cached sort
        hist.observe(1.0)  # must invalidate the cache
        assert hist.percentile(50) == 1.0
        assert hist.percentile(100) == 10.0

    def test_dynamic_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("logs.{job}.lines")


class TestLabeledMetrics:
    def test_labeled_children_are_independent(self):
        registry = MetricsRegistry()
        calls = registry.counter("rpc_calls_total", ("method", "code"))
        calls.labels(method="submit", code="ok").inc()
        calls.labels(method="submit", code="ok").inc()
        calls.labels(method="halt", code="error").inc()
        assert calls.labels(method="submit", code="ok").value == 2
        assert calls.labels(method="halt", code="error").value == 1

    def test_label_set_must_match_schema(self):
        registry = MetricsRegistry()
        calls = registry.counter("c", ("method",))
        with pytest.raises(ValueError):
            calls.labels(verb="submit")
        with pytest.raises(ValueError):
            calls.labels(method="x", extra="y")
        with pytest.raises(ValueError):
            calls.inc()  # labeled family has no default child

    def test_labelnames_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("c", ("method",))
        with pytest.raises(ValueError):
            registry.counter("c", ("verb",))

    def test_invalid_label_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c", ("bad-label",))

    def test_snapshot_keys_carry_labels(self):
        registry = MetricsRegistry()
        registry.gauge("depth", ("name",)).labels(name="q1").set(3)
        snap = registry.snapshot()
        assert snap['depth{name="q1"}'] == 3

    def test_labeled_histogram(self):
        registry = MetricsRegistry()
        hist = registry.histogram("dur", ("op",))
        hist.labels(op="read").observe(1.0)
        hist.labels(op="read").observe(3.0)
        hist.labels(op="write").observe(10.0)
        assert hist.labels(op="read").count == 2
        assert hist.labels(op="read").mean == 2.0
        assert hist.labels(op="write").percentile(50) == 10.0


class TestExposition:
    def test_counter_and_gauge_lines(self):
        registry = MetricsRegistry()
        registry.counter("reqs_total", ("code",),
                         help="Requests").labels(code="ok").inc(3)
        registry.gauge("inflight").set(2)
        text = registry.expose()
        assert "# HELP reqs_total Requests" in text
        assert "# TYPE reqs_total counter" in text
        assert 'reqs_total{code="ok"} 3' in text
        assert "# TYPE inflight gauge" in text
        assert "inflight 2" in text.splitlines()
        assert text.endswith("\n")

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat")
        hist.buckets = (1.0, 5.0)
        for value in (0.5, 0.7, 3.0, 100.0):
            hist.observe(value)
        lines = registry.expose().splitlines()
        assert 'lat_bucket{le="1"} 2' in lines
        assert 'lat_bucket{le="5"} 3' in lines
        assert 'lat_bucket{le="+Inf"} 4' in lines
        assert "lat_sum 104.2" in lines
        assert "lat_count 4" in lines

    def test_dotted_names_exposed_with_underscores(self):
        registry = MetricsRegistry()
        registry.counter("lcm.deploys").inc()
        text = registry.expose()
        assert "lcm_deploys 1" in text.splitlines()
        assert "lcm.deploys" not in text

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c", ("msg",)).labels(msg='a"b\\c\nd').inc()
        assert 'c{msg="a\\"b\\\\c\\nd"} 1' in registry.expose()


class TestTracer:
    def test_records_time_and_fields(self, kernel):
        tracer = Tracer(kernel)

        def proc():
            yield kernel.sleep(3.0)
            tracer.emit("api", "ready", pod="api-1")

        kernel.spawn(proc())
        kernel.run()
        record = tracer.records[0]
        assert record.time == 3.0
        assert record.component == "api"
        assert record.fields == {"pod": "api-1"}

    def test_query_filters(self, kernel):
        tracer = Tracer(kernel)
        tracer.emit("api", "ready", pod="a")
        tracer.emit("api", "crash", pod="a")
        tracer.emit("lcm", "ready", pod="b")
        assert len(tracer.query(component="api")) == 2
        assert len(tracer.query(kind="ready")) == 2
        assert len(tracer.query(component="api", kind="ready")) == 1
        assert tracer.query(pod="b")[0].component == "lcm"

    def test_query_since(self, kernel):
        tracer = Tracer(kernel)
        tracer.emit("x", "a")

        def later():
            yield kernel.sleep(10.0)
            tracer.emit("x", "b")

        kernel.spawn(later())
        kernel.run()
        assert [r.kind for r in tracer.query(since=5.0)] == ["b"]

    def test_first_and_last(self, kernel):
        tracer = Tracer(kernel)
        assert tracer.first(kind="nope") is None
        tracer.emit("x", "e", n=1)
        tracer.emit("x", "e", n=2)
        assert tracer.first(kind="e").fields["n"] == 1
        assert tracer.last(kind="e").fields["n"] == 2


def injector_of(observers):
    return FaultInjector(observers.kernel, observers.tracer,
                         observers.metrics, observers.events)


def injections(tracer):
    """``(time, kind, target, reason)`` of every fault-injector record."""
    return [(r.time, r.kind, r.fields["target"], r.fields.get("reason"))
            for r in tracer.query(component="fault-injector")]


class TestFaultInjector:
    def test_tracer_records_injections(self, kernel):
        observers = Observers(kernel)
        injector_of(observers).inject_gray("ep", "slow", apply=lambda: None)
        assert injections(observers.tracer) == [
            (0.0, "gray-injected", "ep", "slow")]

    def test_injection_counter_metric(self, kernel):
        observers = Observers(kernel)
        registry = observers.metrics
        injector = injector_of(observers)
        injector.inject_gray("ep", "slow", apply=lambda: None)
        injector.inject_gray("ep", "slow", apply=lambda: None)
        injector.inject_gray("ep", "loss", apply=lambda: None)
        family = registry.get("fault_injected_total")
        assert family.labels(target="ep", kind="slow").value == 2
        assert family.labels(target="ep", kind="loss").value == 1

    def test_inject_gray_applies_and_reverts(self, kernel):
        state = {"degraded": False}
        observers = Observers(kernel)
        injector = injector_of(observers)

        def apply():
            state["degraded"] = True

        def revert():
            state["degraded"] = False

        kernel.run(until=2.0)
        injector.inject_gray("ep", "slow", apply=apply, revert=revert,
                             duration=5.0)
        assert state["degraded"]  # applied at once
        kernel.run(until=6.9)
        assert state["degraded"]
        kernel.run(until=8.0)
        assert not state["degraded"]  # reverted at t=7
        assert injections(observers.tracer) == [
            (2.0, "gray-injected", "ep", "slow"),
            (7.0, "gray-cleared", "ep", None)]

    def test_inject_gray_validates_arguments(self, kernel):
        injector = injector_of(Observers(kernel))
        with pytest.raises(ValueError):
            injector.inject_gray("ep", "slow", apply=lambda: None, duration=0)

    def test_a_hang_fires_once_and_a_failure_every_time(self, kernel):
        observers = Observers(kernel)
        registry, tracer = observers.metrics, observers.tracer
        injector = injector_of(observers)
        injector.arm("learner-a", "hang", 20)
        injector.arm("learner-b", "fail", 10)
        for _incarnation in range(2):
            if "learner-a" in injector.armed:
                injector.fired("learner-a")
            injector.fired("learner-b")
        assert injector.armed == {"learner-b": ("fail", 10)}
        assert injections(tracer) == [
            (0.0, "hang-injected", "learner-a", "step 20"),
            (0.0, "fail-injected", "learner-b", "step 10"),
            (0.0, "fail-injected", "learner-b", "step 10")]
        family = registry.get("fault_injected_total")
        assert family.labels(target="learner-a", kind="hang").value == 1
        assert family.labels(target="learner-b", kind="fail").value == 2

    def test_arm_takes_only_hang_or_fail(self, kernel):
        with pytest.raises(ValueError):
            injector_of(Observers(kernel)).arm("learner-a", "crash", 1)
