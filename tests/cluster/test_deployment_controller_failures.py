"""DeploymentController under replica crash and node drain.

The platform's core services, API and LCM, run as Deployments (paper
§III.b), so the controller's failure behaviour is load-bearing: a
killed replica pod must be re-created promptly, a drained node's
replicas must land elsewhere, and neither path may strand orphaned
pods (non-terminal pods the controller no longer counts toward the
replica goal).
"""

from repro.cluster import (
    ContainerSpec,
    Deployment,
    PodSpec,
    PodTemplate,
    RESTART_ALWAYS,
)
from repro.cluster.resources.pod import RUNNING


def core_service_like_deployment(name, replicas, labels=None):
    def spec_factory():
        def workload(ctx):
            yield ctx.stop_event
            return 0

        return PodSpec(
            containers=[ContainerSpec("replica", "tiny", workload=workload)],
            restart_policy=RESTART_ALWAYS,
        )

    return Deployment(name, PodTemplate(spec_factory, labels=labels),
                      replicas=replicas, labels=labels)


def fleet(cluster, selector):
    """(running, live, total) pods for the deployment's selector."""
    pods = cluster.api.list("Pod", selector=selector)
    running = [p for p in pods
               if p.phase == RUNNING and not p.deletion_requested]
    live = [p for p in pods
            if not p.is_terminal() and not p.deletion_requested]
    return running, live, pods


SELECTOR = {"app": "fleet"}


class TestDeploymentFailures:
    def test_replica_crash_recreated_promptly(self, kernel, cluster):
        deployment = core_service_like_deployment("fleet", 3, labels=SELECTOR)
        cluster.api.create(deployment)
        kernel.run(until=30.0)
        running, live, _ = fleet(cluster, SELECTOR)
        assert len(running) == 3 and len(live) == 3

        victim = running[0].metadata.name
        killed_at = kernel.now
        cluster.kubectl.delete_pod(victim, force=True)

        # The controller replaces the pod; measure re-creation latency.
        recreated_at = None
        while kernel.now < killed_at + 60.0:
            kernel.run(until=kernel.now + 0.5)
            running, live, _ = fleet(cluster, SELECTOR)
            if len(running) == 3:
                recreated_at = kernel.now
                break
        assert recreated_at is not None, "replica never re-created"
        # Bound: reconcile tick + schedule + image already on node + boot.
        assert recreated_at - killed_at < 30.0
        running, live, pods = fleet(cluster, SELECTOR)
        assert len(live) == 3  # no extras beyond the replica goal
        assert victim not in {p.metadata.name for p in running}

    def test_node_drain_reschedules_replicas(self, kernel, cluster):
        deployment = core_service_like_deployment("fleet", 3, labels=SELECTOR)
        cluster.api.create(deployment)
        kernel.run(until=30.0)
        running, _live, _ = fleet(cluster, SELECTOR)
        assert len(running) == 3

        # Drain the node hosting the most replicas.
        by_node = {}
        for pod in running:
            by_node.setdefault(pod.node_name, []).append(pod)
        drained = max(by_node, key=lambda n: len(by_node[n]))
        cluster.kubectl.drain(drained)
        kernel.run(until=kernel.now + 60.0)

        running, live, pods = fleet(cluster, SELECTOR)
        assert len(running) == 3 and len(live) == 3
        assert all(p.node_name != drained for p in running)
        # No orphans: everything not in the live fleet is terminal or
        # being deleted, and nothing still sits on the drained node.
        for pod in pods:
            if pod in live:
                continue
            assert pod.is_terminal() or pod.deletion_requested

    def test_node_crash_no_orphaned_pods(self, kernel, cluster):
        deployment = core_service_like_deployment("fleet", 3, labels=SELECTOR)
        cluster.api.create(deployment)
        kernel.run(until=30.0)
        running, _live, _ = fleet(cluster, SELECTOR)
        dead_node = running[0].node_name
        cluster.crash_node(dead_node)

        # Node controller must notice the stale heartbeat, evict, and
        # the deployment controller must restore the fleet elsewhere.
        kernel.run(until=kernel.now + 300.0)
        running, live, pods = fleet(cluster, SELECTOR)
        assert len(running) == 3 and len(live) == 3
        assert all(p.node_name != dead_node for p in running)
        for pod in pods:
            if pod in live:
                continue
            assert pod.is_terminal() or pod.deletion_requested

    def test_scale_down_leaves_no_strays(self, kernel, cluster):
        deployment = core_service_like_deployment("fleet", 4, labels=SELECTOR)
        cluster.api.create(deployment)
        kernel.run(until=30.0)
        running, _live, _ = fleet(cluster, SELECTOR)
        assert len(running) == 4

        deployment.replicas = 1
        cluster.api.update(deployment)
        kernel.run(until=kernel.now + 60.0)
        running, live, pods = fleet(cluster, SELECTOR)
        assert len(running) == 1 and len(live) == 1
        for pod in pods:
            if pod in live:
                continue
            assert pod.is_terminal() or pod.deletion_requested
