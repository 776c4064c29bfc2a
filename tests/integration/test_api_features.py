"""API-surface features: log fallback, metrics, rate limiting, usage."""

import pytest

from repro.cluster import pv_name
from repro.core import RateLimited, api, layout

from .conftest import make_platform, manifest, submit_and_wait_running


class TestLogsFallback:
    def test_logs_served_from_object_store_after_volume_gone(self, platform, client):
        job_id, _doc = platform.run_process(
            client.run_to_completion(manifest()), limit=10_000
        )
        # Simulate volume reclamation after teardown (the platform never
        # reclaims one): logs must come from the archived object-store copy.
        del platform.nfs._volumes[pv_name(layout.pvc_name(job_id))]

        def tail():
            return (yield from client.logs(job_id, tail=3))

        lines = platform.run_process(tail(), limit=600)
        assert any("exiting with code 0" in line for line in lines)

    def test_logs_empty_for_job_without_output_yet(self, platform, client):
        def scenario():
            job_id = yield from client.submit(manifest(target_steps=5000))
            lines = yield from client.logs(job_id)
            return lines

        lines = platform.run_process(scenario(), limit=600)
        assert lines == []


class TestJobMetrics:
    def test_completed_job_reports_throughput(self, platform, client):
        def scenario():
            job_id, _doc = yield from client.run_to_completion(manifest())
            yield platform.kernel.sleep(5.0)  # metrics written at finish
            doc = yield from client.status(job_id)
            return doc

        doc = platform.run_process(scenario(), limit=50_000)
        metrics = doc["metrics"]
        assert metrics is not None
        assert metrics["images_per_sec"] > 0
        assert metrics["processing_seconds"] > 0
        assert metrics["gpu_seconds"] > metrics["processing_seconds"] * 0.5

    def test_running_job_has_no_metrics_yet(self, platform, client):
        def scenario():
            job_id = yield from client.submit(manifest(target_steps=5000))
            yield from client.wait_for_status(job_id, statuses={"PROCESSING"},
                                              timeout=2000)
            doc = yield from client.status(job_id)
            return doc

        doc = platform.run_process(scenario(), limit=10_000)
        assert doc["metrics"] is None


@pytest.fixture
def tight_budget(monkeypatch):
    """A 5 req/s bucket of 10, so a short hammer drains it."""
    monkeypatch.setattr(api, "API_RATE_LIMIT", 5.0)
    monkeypatch.setattr(api, "API_RATE_BURST", 10.0)


@pytest.mark.usefixtures("tight_budget")
class TestRateLimiting:
    def test_burst_beyond_budget_rejected(self):
        platform = make_platform()
        client = platform.client("greedy")

        def hammer():
            for _ in range(40):
                yield from client.list_jobs()

        with pytest.raises(RateLimited):
            platform.run_process(hammer(), limit=600)

    def test_budget_refills(self):
        platform = make_platform()
        client = platform.client("patient")

        def paced():
            for _ in range(20):
                yield from client.list_jobs()
                yield platform.kernel.sleep(1.0)  # under 5 req/s
            return True

        assert platform.run_process(paced(), limit=600)

    def test_throttled_tenant_does_not_block_another(self):
        # Each API replica keeps its own per-tenant bucket; the hammer
        # drains the greedy tenant's bucket on both of them.
        platform = make_platform()
        greedy = platform.client("greedy")
        patient = platform.client("patient")

        def hammer():
            throttled = 0
            for _ in range(40):
                try:
                    yield from greedy.list_jobs()
                except RateLimited:
                    throttled += 1
            return throttled

        throttled = platform.run_process(hammer(), limit=600)
        assert throttled
        replicas = platform.api_balancer.endpoints
        assert len(replicas) == 2
        requests = platform.metrics.get("rpc_endpoint_requests_total")
        for replica in replicas:
            assert requests.labels(endpoint=replica, method="list_jobs",
                                   code="ServiceError").value > 0, replica

        job_id = submit_and_wait_running(platform, patient, manifest())
        assert job_id
        rejected = {labels: child.value for labels, child in
                    platform.metrics.get("admission_rejected_total")
                    .children()}
        assert rejected == {("greedy", "rate"): throttled}


class TestUsageReport:
    def test_usage_accumulates_by_method(self, platform, client):
        def scenario():
            yield from client.submit(manifest(target_steps=20))
            yield from client.list_jobs()
            yield from client.list_jobs()
            return (yield from client.usage())

        report = platform.run_process(scenario(), limit=600)
        assert report["api_calls"]["submit"] == 1
        assert report["api_calls"]["list_jobs"] == 2
        assert report["jobs_submitted"] == 1
        assert report["gpus_requested"] == 1
