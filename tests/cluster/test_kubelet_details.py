"""Kubelet details: multi-container pods, backoff cap, volume waits."""

import pytest

from repro.cluster import (
    ContainerSpec,
    PersistentVolumeClaim,
    Pod,
    PodSpec,
    RESTART_ALWAYS,
    RESTART_NEVER,
    RESTART_ON_FAILURE,
)
from repro.cluster.kubelet import SYNC_INTERVAL

from ..observers import kubernetes


def sleeper(duration, exit_code=0):
    def workload(ctx):
        yield ctx.kernel.sleep(duration)
        return exit_code

    return workload


class TestMultiContainerPods:
    def test_pod_succeeds_when_all_containers_succeed(self, kernel, cluster):
        spec = PodSpec(
            containers=[
                ContainerSpec("fast", "tiny", workload=sleeper(0.5)),
                ContainerSpec("slow", "tiny", workload=sleeper(2.0)),
            ],
            restart_policy=RESTART_NEVER,
        )
        pod = Pod("multi", spec)
        cluster.api.create(pod)
        kernel.run(until=10.0)
        assert pod.phase == "Succeeded"
        assert pod.container_statuses["fast"].exit_code == 0
        assert pod.container_statuses["slow"].exit_code == 0

    def test_one_failing_container_fails_pod(self, kernel, cluster):
        spec = PodSpec(
            containers=[
                ContainerSpec("good", "tiny", workload=sleeper(0.5)),
                ContainerSpec("bad", "tiny", workload=sleeper(0.5, exit_code=3)),
            ],
            restart_policy=RESTART_NEVER,
        )
        pod = Pod("multi", spec)
        cluster.api.create(pod)
        kernel.run(until=10.0)
        assert pod.phase == "Failed"
        assert pod.container_statuses["bad"].exit_code == 3

    def test_on_failure_restarts_only_the_failing_container(self, kernel, cluster):
        attempts = {"good": 0, "flaky": 0}

        def good(ctx):
            attempts["good"] += 1
            yield ctx.kernel.sleep(0.5)
            return 0

        def flaky(ctx):
            attempts["flaky"] += 1
            yield ctx.kernel.sleep(0.2)
            return 1 if attempts["flaky"] < 3 else 0

        spec = PodSpec(
            containers=[
                ContainerSpec("good", "tiny", workload=good),
                ContainerSpec("flaky", "tiny", workload=flaky),
            ],
            restart_policy=RESTART_ON_FAILURE,
        )
        pod = Pod("multi", spec)
        cluster.api.create(pod)
        kernel.run(until=20.0)
        assert pod.phase == "Succeeded"
        assert attempts == {"good": 1, "flaky": 3}

    def test_duplicate_container_names_rejected(self):
        from repro.cluster import InvalidResource

        with pytest.raises(InvalidResource):
            PodSpec(containers=[ContainerSpec("x", "i"), ContainerSpec("x", "i")])


class TestBackoffCap:
    def test_backoff_caps_at_configured_max(self, kernel, nfs, monkeypatch):
        from repro.cluster import kubelet

        monkeypatch.setattr(kubelet, "RESTART_BACKOFF_BASE", 0.5)
        monkeypatch.setattr(kubelet, "RESTART_BACKOFF_MAX", 2.0)
        cluster = kubernetes(kernel, nfs)
        cluster.registry.register("tiny", 10)
        cluster.add_node("n0", gpus=0)
        cluster.start()
        starts = []

        def crasher(ctx):
            starts.append(ctx.kernel.now)
            yield ctx.kernel.sleep(0.05)
            return 1

        spec = PodSpec(containers=[ContainerSpec("c", "tiny", workload=crasher)],
                       restart_policy=RESTART_ON_FAILURE)
        cluster.api.create(Pod("loop", spec))
        kernel.run(until=30.0)
        gaps = [b - a for a, b in zip(starts, starts[1:])]
        assert len(gaps) >= 5
        # Gaps grow but never beyond max + run duration.
        assert max(gaps) <= 2.0 + 0.05 + 1e-6
        assert gaps[-1] == pytest.approx(2.05, abs=0.01)


class TestVolumeWaits:
    def test_pod_with_unbound_pvc_stays_pending_until_bound(self, kernel, cluster):
        # Create the pod first; the PVC arrives late.
        spec = PodSpec(
            containers=[ContainerSpec("c", "tiny", workload=sleeper(0.5))],
            restart_policy=RESTART_NEVER,
            volumes={"v": "late-claim"},
        )
        pod = Pod("waiter", spec)
        cluster.api.create(pod)
        kernel.run(until=3.0)
        assert pod.phase == "Pending"  # scheduled but not started

        cluster.api.create(PersistentVolumeClaim("late-claim"))
        kernel.run(until=10.0)
        assert pod.phase == "Succeeded"

    def test_deleting_pod_stuck_on_pvc_unblocks(self, kernel, cluster):
        spec = PodSpec(
            containers=[ContainerSpec("c", "tiny", workload=sleeper(0.5))],
            restart_policy=RESTART_NEVER,
            volumes={"v": "never-bound"},
        )
        pod = Pod("stuck", spec)
        cluster.api.create(pod)
        kernel.run(until=3.0)
        cluster.kubectl.delete_pod("stuck")
        kernel.run(until=10.0)
        assert not cluster.api.exists("Pod", "stuck")
        assert cluster.capacity_summary()["gpus_allocated"] == 0


class TestRestartCountsSurviveReporting:
    def test_pod_restart_count_aggregates_containers(self, kernel, cluster):
        calls = {"a": 0, "b": 0}

        def make(name):
            def workload(ctx):
                calls[name] += 1
                yield ctx.kernel.sleep(0.3)
                return 1 if calls[name] < 2 else 0

            return workload

        spec = PodSpec(
            containers=[
                ContainerSpec("a", "tiny", workload=make("a")),
                ContainerSpec("b", "tiny", workload=make("b")),
            ],
            restart_policy=RESTART_ON_FAILURE,
        )
        pod = Pod("counted", spec)
        cluster.api.create(pod)
        kernel.run(until=15.0)
        assert pod.phase == "Succeeded"
        assert pod.restart_count == 2


class TestBriefKubeletOutage:
    def test_containers_restart_locally_after_short_outage(self, kernel, cluster):
        # Kubelet dies and returns within the eviction timeout: the node
        # is never marked NotReady, and the containers restart in place
        # on the same node (a machine reboot faster than detection).
        runs = []

        def service(ctx):
            runs.append(ctx.kernel.now)
            yield ctx.kernel.sleep(1e6)
            return 0

        spec = PodSpec(containers=[ContainerSpec("c", "tiny", workload=service)],
                       restart_policy=RESTART_ALWAYS)
        pod = Pod("resident", spec)
        cluster.api.create(pod)
        kernel.run(until=3.0)
        node_name = pod.node_name
        kubelet = cluster.kubelet_for(node_name)
        kubelet.crash()
        kernel.run(until=4.0)  # under the 3s eviction timeout? restart now
        kubelet.restart()
        kernel.run(until=15.0)
        assert pod.node_name == node_name  # never rescheduled
        assert pod.phase == "Running"
        assert len(runs) == 2  # original start + post-outage restart

    def test_loops_stop_on_crash_and_resume(self, kernel, cluster):
        # A crash stops heartbeat and sync at that instant: no pass of
        # either runs while the machine is down, and a restart resumes
        # both. A sync pass starts by asking the cluster what changed.
        syncs = []
        pods_changed = cluster.pods_changed

        def spy(node_name):
            if node_name == "node-1":
                syncs.append(kernel.now)
            return pods_changed(node_name)

        cluster.pods_changed = spy
        kernel.run(until=1.0)
        kubelet = cluster.kubelet_for("node-1")
        node = kubelet.node
        assert syncs and node.last_heartbeat > 0.0
        kubelet.crash()
        beat, passes = node.last_heartbeat, len(syncs)
        kernel.run(until=3.0)
        assert (node.last_heartbeat, len(syncs)) == (beat, passes)
        kubelet.restart()
        kernel.run(until=4.0)
        assert syncs[passes] == 3.0 and len(syncs) - passes >= 10
        assert node.last_heartbeat > 3.0


class TestSyncReadsNodeIndex:
    def test_pod_bound_after_creation_is_picked_up_next_sync(self, kernel, cluster):
        # Created with the scheduler stopped, so no node's index holds
        # it; a late bind through update() must reach the kubelet.
        cluster.scheduler.stop()
        spec = PodSpec(containers=[ContainerSpec("c", "tiny",
                                                 workload=sleeper(1e6))],
                       restart_policy=RESTART_NEVER)
        pod = cluster.api.create(Pod("late", spec))
        kernel.run(until=2.0)
        kubelet = cluster.kubelet_for("node-1")
        assert pod.node_name is None and not pod.metadata.uid in kubelet._pod_workers
        assert cluster.api.list("Pod", node_name="node-1") == []

        assert cluster.scheduler._bind_one(
            pod, [cluster.api.get("Node", "node-1")], set()) == 1
        assert cluster.api.list("Pod", node_name="node-1") == [pod]
        kernel.run(until=kernel.now + 2 * SYNC_INTERVAL)
        assert pod.metadata.uid in kubelet._pod_workers
        kernel.run(until=6.0)
        assert pod.phase == "Running"

    def test_deleted_pod_leaves_the_node_index(self, kernel, cluster):
        spec = PodSpec(containers=[ContainerSpec("c", "tiny",
                                                 workload=sleeper(1e6))],
                       restart_policy=RESTART_NEVER)
        pod = cluster.api.create(Pod("doomed", spec))
        kernel.run(until=3.0)
        node_name = pod.node_name
        assert cluster.api.list("Pod", node_name=node_name) == [pod]
        cluster.kubectl.delete_pod("doomed")
        kernel.run(until=6.0)
        assert not cluster.api.exists("Pod", "doomed")
        assert cluster.api.list("Pod", node_name=node_name) == []
        assert not pod.metadata.uid in cluster.kubelet_for(node_name)._pod_workers
        assert cluster.capacity_summary()["gpus_allocated"] == 0
