"""BatchCoordinator: lease bookkeeping and exactly-once accounting."""

import pytest

from repro.serving import BatchCoordinator, BatchInferManifest
from repro.serving.batch import (
    LEASE_TIMEOUT,
    SHARD_DONE,
    SHARD_LEASED,
    SHARD_PENDING,
)


def batch_manifest(**overrides):
    base = {
        "name": "score-all",
        "framework": "tensorflow",
        "model": "resnet50",
        "gpu_type": "k80",
        "items": 250,
        "shard_size": 100,
        "workers": 2,
    }
    base.update(overrides)
    return BatchInferManifest.from_dict(base)


@pytest.fixture
def coordinator(stub_platform):
    return BatchCoordinator(stub_platform, "b1", batch_manifest())


class TestLeasing:
    def test_shard_partitioning(self, coordinator):
        assert [s.items for s in coordinator.shards] == [100, 100, 50]

    def test_lease_order_and_exhaustion(self, coordinator):
        first = coordinator.lease("w1")
        second = coordinator.lease("w2")
        third = coordinator.lease("w1")
        assert (first.index, second.index, third.index) == (0, 1, 2)
        assert coordinator.lease("w3") is None
        assert all(s.state == SHARD_LEASED for s in coordinator.shards)

    def test_renew_extends_only_for_holder(self, coordinator, kernel):
        shard = coordinator.lease("w1")
        original_expiry = shard.lease_expires
        kernel.run(until=5.0)
        coordinator.renew(shard, "w2")  # not the holder: ignored
        assert shard.lease_expires == original_expiry
        coordinator.renew(shard, "w1")
        assert shard.lease_expires == kernel.now + LEASE_TIMEOUT


class TestExactlyOnce:
    def test_first_completion_wins(self, coordinator):
        shard = coordinator.lease("w1")
        assert coordinator.complete(shard, "w1") is True
        assert shard.state == SHARD_DONE
        # A zombie worker reporting the same shard again is ignored.
        assert coordinator.complete(shard, "w1") is False
        assert coordinator.completed == 1
        assert coordinator.duplicates == 1
        assert shard.completions == 2

    def test_done_after_every_shard(self, coordinator):
        while not coordinator.done:
            coordinator.complete(coordinator.lease("w1"), "w1")
        assert coordinator.completed == len(coordinator.shards)
        assert coordinator.duplicates == 0

    def test_completion_event_reports_totals(self, stub_platform):
        coordinator = BatchCoordinator(stub_platform, "b1",
                                       batch_manifest(items=100))
        coordinator.complete(coordinator.lease("w1"), "w1")
        event = stub_platform.events.get(
            "Normal", "BatchInferCompleted", "BatchInfer", "b1")
        assert event is not None
        assert "1 shards done" in event.message


class TestLeaseRecovery:
    def test_expiry_requeues(self, coordinator, kernel):
        shard = coordinator.lease("w1")
        assert coordinator.expire_leases() == 0  # still fresh
        kernel.run(until=LEASE_TIMEOUT + 1.0)
        assert coordinator.expire_leases() == 1
        assert shard.state == SHARD_PENDING
        assert shard.holder is None
        assert coordinator.requeues == 1

    def test_release_requeues_immediately(self, coordinator):
        coordinator.lease("w1")
        coordinator.lease("w1")
        kept = coordinator.lease("w2")
        coordinator.release("w1")
        pending = [s for s in coordinator.shards if s.state == SHARD_PENDING]
        assert len(pending) == 2
        assert kept.state == SHARD_LEASED
        assert coordinator.requeues == 2

    def test_requeue_emits_warning_event(self, coordinator, stub_platform,
                                         kernel):
        coordinator.lease("w1")
        kernel.run(until=LEASE_TIMEOUT + 1.0)
        coordinator.expire_leases()
        event = stub_platform.events.get(
            "Warning", "BatchShardRequeued", "BatchInfer", "b1")
        assert event is not None
        assert "lease expired" in event.message

    def test_wait_for_work_wakes_on_requeue(self, coordinator, kernel):
        shard = coordinator.lease("w1")
        woken = []

        def waiter():
            yield coordinator.wait_for_work()
            woken.append(kernel.now)

        kernel.spawn(waiter())
        kernel.run(until=5.0)
        assert not woken  # nothing requeued yet
        coordinator.release("w1")
        kernel.run(until=6.0)
        assert woken
        assert shard.state == SHARD_PENDING


class TestStallDetection:
    def test_stalled_gauge_tracks_idle_time(self, coordinator, kernel,
                                            metrics):
        kernel.run(until=30.0)
        coordinator.expire_leases()
        gauge = metrics.gauge("batchinfer_stalled_seconds", ("batch",))
        assert gauge.labels(batch="b1").value == 30.0

    def test_completion_resets_stall_clock(self, coordinator, kernel,
                                           metrics):
        kernel.run(until=30.0)
        coordinator.complete(coordinator.lease("w1"), "w1")
        coordinator.expire_leases()
        gauge = metrics.gauge("batchinfer_stalled_seconds", ("batch",))
        assert gauge.labels(batch="b1").value == 0.0
