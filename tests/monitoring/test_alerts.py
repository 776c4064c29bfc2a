"""Unit tests for the SLO alerting engine (rules, lifecycle edges)."""

import pytest

from repro.monitoring import (
    AlertEngine,
    AlertRule,
    FIRING,
    INACTIVE,
    Increase,
    Metric,
    PENDING,
    RESOLVED,
    default_rule_pack,
)
from repro.core import PlatformConfig
from repro.sim import Kernel
from repro.sim.timeseries import TimeSeriesStore

from ..observers import Observers


@pytest.fixture
def kernel():
    return Kernel(seed=4)


@pytest.fixture
def store():
    return TimeSeriesStore()


def engine_with(kernel, store, rule, observers=None):
    observers = observers or Observers(kernel)
    engine = AlertEngine(kernel, store, observers.events, observers.metrics,
                         interval=1.0)
    engine.add_rule(rule)
    return engine


def up_rule(for_=2.0):
    return AlertRule("ApiDown", Metric("up", component="api") == 0, for_=for_)


class TestExpressions:
    def test_metric_instant_vector(self, store):
        store.add("up", {"component": "api"}, 1.0, 0.0)
        store.add("up", {"component": "lcm"}, 1.0, 1.0)
        satisfied = (Metric("up") == 0).eval(store, now=1.5, staleness=5.0)
        assert list(satisfied.values()) == [0.0]
        assert dict(list(satisfied)[0])["component"] == "api"

    def test_stale_sample_drops_out(self, store):
        store.add("up", {"component": "api"}, 1.0, 0.0)
        assert (Metric("up") == 0).eval(store, now=20.0, staleness=2.5) == {}

    def test_increase_over_window(self, store):
        for t, v in ((0.0, 0.0), (5.0, 2.0), (10.0, 7.0)):
            store.add("deploys_total", {}, t, v)
        result = Increase("deploys_total", 6.0).eval(store, 10.0, None)
        assert result == {(): 5.0}  # samples at t=5 and t=10

    def test_increase_needs_two_points(self, store):
        store.add("deploys_total", {}, 10.0, 7.0)
        assert Increase("deploys_total", 5.0).eval(store, 10.0, None) == {}

    def test_ratio_skips_zero_denominator(self, store):
        store.add("rollbacks", {}, 0.0, 0.0)
        store.add("rollbacks", {}, 10.0, 3.0)
        store.add("attempts", {}, 0.0, 0.0)
        store.add("attempts", {}, 10.0, 4.0)
        ratio = Increase("rollbacks", 60.0) / Increase("attempts", 60.0)
        assert ratio.eval(store, 10.0, None) == {(): 0.75}
        empty = TimeSeriesStore()
        empty.add("rollbacks", {}, 0.0, 1.0)
        empty.add("rollbacks", {}, 10.0, 2.0)
        assert ratio.eval(empty, 10.0, None) == {}

    def test_condition_requires_condition_type(self):
        with pytest.raises(TypeError):
            AlertRule("bad", Metric("up"))


class TestLifecycle:
    def test_pending_then_firing_then_resolved(self, kernel, store):
        engine = engine_with(kernel, store, up_rule(for_=2.0))
        labels = (("component", "api"),)
        store.add("up", {"component": "api"}, 0.0, 0.0)
        engine.evaluate_once()  # -> pending
        assert engine.active[("ApiDown", labels)]["state"] == PENDING
        assert engine.firing() == []

        kernel.run(until=2.0)
        store.add("up", {"component": "api"}, 2.0, 0.0)
        engine.evaluate_once()  # held for for_=2 -> firing
        assert engine.firing("ApiDown")

        kernel.run(until=4.0)
        store.add("up", {"component": "api"}, 4.0, 1.0)
        engine.evaluate_once()  # recovered -> resolved
        assert engine.firing() == []
        assert engine.transitions("ApiDown") == [
            (INACTIVE, PENDING), (PENDING, FIRING), (FIRING, RESOLVED)]

    def test_pending_that_recovers_never_fires(self, kernel, store):
        """Satellite: a dip shorter than ``for:`` must not page anyone."""
        observers = Observers(kernel)
        recorder = observers.events
        engine = engine_with(kernel, store, up_rule(for_=5.0), observers)
        store.add("up", {"component": "api"}, 0.0, 0.0)
        engine.evaluate_once()  # pending at t=0
        kernel.run(until=1.0)
        store.add("up", {"component": "api"}, 1.0, 1.0)
        engine.evaluate_once()  # recovered before for_ elapsed
        assert engine.transitions("ApiDown") == [
            (INACTIVE, PENDING), (PENDING, INACTIVE)]
        assert engine.active == {}
        assert len(recorder) == 0  # no event for a dip that never fired

    def test_zero_for_fires_immediately(self, kernel, store):
        engine = engine_with(kernel, store, up_rule(for_=0.0))
        store.add("up", {"component": "api"}, 0.0, 0.0)
        engine.evaluate_once()
        assert engine.firing("ApiDown")

    def test_firing_emits_warning_and_resolution_events(self, kernel, store):
        observers = Observers(kernel)
        recorder = observers.events
        engine = engine_with(kernel, store, up_rule(for_=0.0), observers)
        store.add("up", {"component": "api"}, 0.0, 0.0)
        engine.evaluate_once()
        warning = recorder.warnings(reason="ApiDown")
        assert len(warning) == 1
        assert warning[0].kind == "Component" and warning[0].name == "api"
        kernel.run(until=1.0)
        store.add("up", {"component": "api"}, 1.0, 1.0)
        engine.evaluate_once()
        assert recorder.events(reason="AlertResolved", name="api")

    def test_firing_gauge_and_transition_counter(self, kernel, store):
        observers = Observers(kernel)
        registry = observers.metrics
        engine = engine_with(kernel, store, up_rule(for_=0.0), observers)
        gauge = registry.gauge("alerts_firing", ("alert",))
        assert gauge.labels(alert="ApiDown").value == 0
        store.add("up", {"component": "api"}, 0.0, 0.0)
        engine.evaluate_once()
        assert gauge.labels(alert="ApiDown").value == 1
        kernel.run(until=1.0)
        store.add("up", {"component": "api"}, 1.0, 1.0)
        engine.evaluate_once()
        assert gauge.labels(alert="ApiDown").value == 0
        transitions = registry.counter("alert_transitions_total",
                                       ("alert", "state"))
        assert transitions.labels(alert="ApiDown", state="firing").value == 1

    def test_custom_rule_reason_registered_on_recorder(self, kernel, store):
        observers = Observers(kernel)
        recorder = observers.events
        rule = AlertRule("QueueTooDeep", Metric("depth") > 10, for_=0.0)
        engine_with(kernel, store, rule, observers).evaluate_once()
        recorder.emit_event("Warning", "QueueTooDeep", "Component", "q")

    def test_staleness_resolves_vanished_series(self, kernel, store):
        engine = engine_with(kernel, store, up_rule(for_=0.0))
        engine.staleness = 2.0
        store.add("up", {"component": "api"}, 0.0, 0.0)
        engine.evaluate_once()
        assert engine.firing("ApiDown")
        kernel.run(until=10.0)  # no fresh samples: series went stale
        engine.evaluate_once()
        assert engine.firing() == []
        assert engine.transitions("ApiDown")[-1] == (FIRING, RESOLVED)


class TestRecordingRules:
    def test_recorded_series_feeds_alert_in_same_pass(self, kernel, store):
        observers = Observers(kernel)
        engine = AlertEngine(kernel, store, observers.events, observers.metrics,
                             interval=1.0)
        engine.add_recording_rule("error_ratio",
                                  Increase("errors", 60.0) / Increase("ops", 60.0))
        engine.add_rule(AlertRule("ErrorsHigh", Metric("error_ratio") > 0.5,
                                  for_=0.0))
        for t, errors, ops in ((0.0, 0.0, 0.0), (5.0, 6.0, 8.0)):
            store.add("errors", {}, t, errors)
            store.add("ops", {}, t, ops)
        kernel.run(until=5.0)
        engine.evaluate_once()
        assert store.get("error_ratio").values() == [0.75]
        assert engine.firing("ErrorsHigh")


class TestDefaultRulePack:
    def test_covers_failure_matrix(self):
        rules = {rule.name for rule in default_rule_pack(PlatformConfig())}
        for expected in ("ApiDown", "LcmDown", "GuardianDown", "HelperDown",
                         "LearnerDown", "EtcdDegraded", "MongoDegraded",
                         "NfsDown", "DeployFailureRatioHigh", "RpcLatencyHigh",
                         "WorkqueueBacklog"):
            assert expected in rules

    def test_reasons_all_registered(self, kernel):
        observers = Observers(kernel)
        store = TimeSeriesStore()
        engine = AlertEngine(kernel, store, observers.events, observers.metrics)
        for rule in default_rule_pack(PlatformConfig()):
            engine.add_rule(rule)  # register_reason would raise on junk
