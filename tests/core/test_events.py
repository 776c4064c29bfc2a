"""Unit tests for the platform event recorder (dedup, vocabulary)."""

import pytest

from repro.core.events import EventRecorder, REASONS
from repro.sim import Kernel, MetricsRegistry


@pytest.fixture
def kernel():
    return Kernel(seed=1)


@pytest.fixture
def recorder(kernel):
    return EventRecorder(kernel, MetricsRegistry())


class TestEmit:
    def test_basic_emit(self, recorder):
        event = recorder.emit_event("Warning", "ComponentCrashed", "Pod",
                                    "dlaas-api-1", message="endpoint lost")
        assert event.count == 1
        assert (event.type, event.reason, event.kind, event.name) == (
            "Warning", "ComponentCrashed", "Pod", "dlaas-api-1")
        assert len(recorder) == 1

    def test_rejects_unknown_type(self, recorder):
        with pytest.raises(ValueError, match="Normal or Warning"):
            recorder.emit_event("Info", "ComponentCrashed", "Pod", "p")

    def test_rejects_unregistered_reason(self, recorder):
        with pytest.raises(ValueError, match="unregistered"):
            recorder.emit_event("Normal", "SomethingNovel", "Pod", "p")

    def test_rejects_freeform_reason(self, recorder):
        with pytest.raises(ValueError, match="CamelCase"):
            recorder.emit_event("Normal", "crashed: pod x", "Pod", "p")

    def test_register_reason_admits_custom(self, recorder):
        recorder.register_reason("MyCustomAlert")
        event = recorder.emit_event("Warning", "MyCustomAlert", "Component", "x")
        assert event.reason == "MyCustomAlert"

    def test_register_reason_rejects_invalid(self, recorder):
        with pytest.raises(ValueError):
            recorder.register_reason("not camel case")

    def test_builtin_vocabulary_is_camelcase(self):
        for reason in REASONS:
            assert reason[0].isupper() and " " not in reason, reason


class TestDedup:
    def test_repeat_bumps_count_not_length(self, kernel, recorder):
        first = recorder.emit_event("Warning", "ContainerRestarted", "Pod",
                                    "job-1-learner-0", message="exited 1")
        kernel.run(until=5.0)
        second = recorder.emit_event("Warning", "ContainerRestarted", "Pod",
                                     "job-1-learner-0", message="exited 1 again")
        assert second is first
        assert len(recorder) == 1
        assert first.count == 2
        assert first.first_time == 0.0
        assert first.last_time == 5.0
        assert first.message == "exited 1 again"

    def test_different_object_is_new_record(self, recorder):
        recorder.emit_event("Warning", "ContainerRestarted", "Pod", "a")
        recorder.emit_event("Warning", "ContainerRestarted", "Pod", "b")
        assert len(recorder) == 2

    def test_different_type_is_new_record(self, recorder):
        recorder.emit_event("Normal", "ComponentReady", "Pod", "a")
        recorder.emit_event("Warning", "ComponentCrashed", "Pod", "a")
        assert len(recorder) == 2


class TestQueries:
    def test_filters(self, recorder):
        recorder.emit_event("Normal", "Deployed", "Job", "job-1", job="job-1")
        recorder.emit_event("Warning", "LearnerFailed", "Pod",
                            "job-1-learner-0", job="job-1")
        recorder.emit_event("Normal", "Deployed", "Job", "job-2", job="job-2")
        assert len(recorder.events(job="job-1")) == 2
        assert len(recorder.warnings(job="job-1")) == 1
        assert recorder.events(reason="Deployed", job="job-2")[0].name == "job-2"

    def test_metrics_counter(self, kernel):
        registry = MetricsRegistry()
        recorder = EventRecorder(kernel, registry)
        recorder.emit_event("Warning", "NfsOutage", "NfsServer", "nfs")
        recorder.emit_event("Warning", "NfsOutage", "NfsServer", "nfs")
        counter = registry.counter("platform_events_total", ("type", "reason"))
        # Dedup folds the record but the counter sees every emission.
        assert counter.labels(type="Warning", reason="NfsOutage").value == 2
