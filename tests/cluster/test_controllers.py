"""Tests for Job/StatefulSet/Deployment/Node controllers."""

from repro.cluster import (
    ContainerSpec,
    Deployment,
    Job,
    NetworkPolicy,
    PodSpec,
    PodTemplate,
    RESTART_ALWAYS,
    RESTART_NEVER,
    StatefulSet,
)
from repro.cluster.resources.node import NOT_READY, READY


def template(workload_factory, restart_policy=RESTART_NEVER, labels=None):
    def spec_factory():
        return PodSpec(
            containers=[ContainerSpec("main", "tiny", workload=workload_factory())],
            restart_policy=restart_policy,
        )

    return PodTemplate(spec_factory, labels=labels)


class TestJobController:
    def test_job_runs_to_completion(self, kernel, cluster):
        def make_workload():
            def workload(ctx):
                yield ctx.kernel.sleep(1.0)
                return 0

            return workload

        job = Job("guardian-j1", template(make_workload))
        cluster.api.create(job)
        kernel.run(until=10.0)
        assert job.succeeded and not job.failed

    def test_job_retries_failed_pods(self, kernel, cluster):
        attempts = []

        def make_workload():
            def workload(ctx):
                attempts.append(ctx.kernel.now)
                yield ctx.kernel.sleep(0.3)
                return 1 if len(attempts) < 3 else 0

            return workload

        job = Job("retry-job", template(make_workload), backoff_limit=6)
        cluster.api.create(job)
        kernel.run(until=30.0)
        assert job.succeeded
        assert len(attempts) == 3

    def test_job_fails_after_backoff_limit(self, kernel, cluster):
        def make_workload():
            def workload(ctx):
                yield ctx.kernel.sleep(0.2)
                return 1

            return workload

        job = Job("hopeless", template(make_workload), backoff_limit=2)
        cluster.api.create(job)
        kernel.run(until=60.0)
        assert job.failed and not job.succeeded
        assert job.failures == 3  # initial + 2 retries

    def test_job_pod_replaced_after_kill(self, kernel, cluster):
        attempts = []

        def make_workload():
            def workload(ctx):
                attempts.append(ctx.kernel.now)
                yield ctx.kernel.sleep(3.0)
                return 0

            return workload

        job = Job("guardian", template(make_workload), backoff_limit=5)
        cluster.api.create(job)
        kernel.run(until=2.0)
        assert len(attempts) == 1
        pod_name = job.active_pod
        cluster.kubectl.delete_pod(pod_name, force=True)
        kernel.run(until=20.0)
        assert job.succeeded
        assert len(attempts) == 2


class TestStatefulSetController:
    def test_creates_ordinal_pods(self, kernel, cluster):
        def make_workload():
            def workload(ctx):
                yield ctx.kernel.sleep(100.0)
                return 0

            return workload

        sset = StatefulSet("learner", template(make_workload, RESTART_ALWAYS), replicas=3)
        cluster.api.create(sset)
        kernel.run(until=5.0)
        names = sorted(p.metadata.name for p in cluster.kubectl.get_pods())
        assert names == ["learner-0", "learner-1", "learner-2"]

    def test_ordinal_env_injected(self, kernel, cluster):
        seen = {}

        def make_workload():
            def workload(ctx):
                seen[ctx.env["ORDINAL"]] = True
                yield ctx.kernel.sleep(100.0)
                return 0

            return workload

        sset = StatefulSet("learner", template(make_workload, RESTART_ALWAYS), replicas=2)
        cluster.api.create(sset)
        kernel.run(until=5.0)
        assert set(seen) == {"0", "1"}

    def test_killed_pod_recreated_with_same_name(self, kernel, cluster):
        def make_workload():
            def workload(ctx):
                yield ctx.kernel.sleep(1000.0)
                return 0

            return workload

        sset = StatefulSet("learner", template(make_workload, RESTART_ALWAYS), replicas=2)
        cluster.api.create(sset)
        kernel.run(until=5.0)
        old_uid = cluster.kubectl.get_pod("learner-1").metadata.uid
        cluster.kubectl.delete_pod("learner-1", force=True)
        kernel.run(until=15.0)
        replacement = cluster.kubectl.get_pod("learner-1")
        assert replacement.metadata.uid != old_uid
        assert replacement.phase == "Running"

    def test_scale_down_removes_high_ordinals(self, kernel, cluster):
        def make_workload():
            def workload(ctx):
                yield ctx.kernel.sleep(1000.0)
                return 0

            return workload

        sset = StatefulSet("learner", template(make_workload, RESTART_ALWAYS), replicas=3)
        cluster.api.create(sset)
        kernel.run(until=5.0)
        sset.replicas = 1
        cluster.api.update(sset)
        kernel.run(until=15.0)
        names = sorted(p.metadata.name for p in cluster.kubectl.get_pods())
        assert names == ["learner-0"]

    def test_teardown_removes_everything(self, kernel, cluster):
        def make_workload():
            def workload(ctx):
                yield ctx.kernel.sleep(1000.0)
                return 0

            return workload

        sset = StatefulSet("learner", template(make_workload, RESTART_ALWAYS), replicas=2)
        cluster.api.create(sset)
        kernel.run(until=5.0)
        sset.deletion_requested = True
        cluster.api.update(sset)
        kernel.run(until=20.0)
        assert cluster.kubectl.get_pods() == []
        assert not cluster.api.exists("StatefulSet", "learner")


class TestDeploymentController:
    def test_maintains_replicas(self, kernel, cluster):
        def make_workload():
            def workload(ctx):
                yield ctx.kernel.sleep(1000.0)
                return 0

            return workload

        deployment = Deployment("api", template(make_workload, RESTART_ALWAYS), replicas=2)
        cluster.api.create(deployment)
        kernel.run(until=5.0)
        pods = cluster.kubectl.get_pods(selector={"deployment": "api"})
        assert len(pods) == 2

    def test_replaces_deleted_pod(self, kernel, cluster):
        def make_workload():
            def workload(ctx):
                yield ctx.kernel.sleep(1000.0)
                return 0

            return workload

        deployment = Deployment("api", template(make_workload, RESTART_ALWAYS), replicas=1)
        cluster.api.create(deployment)
        kernel.run(until=5.0)
        victim = cluster.kubectl.get_pods(selector={"deployment": "api"})[0]
        cluster.kubectl.delete_pod(victim.metadata.name, force=True)
        kernel.run(until=15.0)
        pods = cluster.kubectl.get_pods(selector={"deployment": "api"})
        assert len(pods) == 1
        assert pods[0].metadata.uid != victim.metadata.uid

    def test_scale_up_and_down(self, kernel, cluster):
        def make_workload():
            def workload(ctx):
                yield ctx.kernel.sleep(1000.0)
                return 0

            return workload

        deployment = Deployment("api", template(make_workload, RESTART_ALWAYS), replicas=1)
        cluster.api.create(deployment)
        kernel.run(until=5.0)
        deployment.replicas = 3
        cluster.api.update(deployment)
        kernel.run(until=10.0)
        assert len(cluster.kubectl.get_pods(selector={"deployment": "api"})) == 3
        deployment.replicas = 1
        cluster.api.update(deployment)
        kernel.run(until=20.0)
        live = [p for p in cluster.kubectl.get_pods(selector={"deployment": "api"})
                if not p.deletion_requested]
        assert len(live) == 1


class TestNodeFailure:
    def test_node_crash_detected_and_pods_evicted(self, kernel, cluster):
        def make_workload():
            def workload(ctx):
                yield ctx.kernel.sleep(1000.0)
                return 0

            return workload

        deployment = Deployment("api", template(make_workload, RESTART_ALWAYS), replicas=1)
        cluster.api.create(deployment)
        kernel.run(until=5.0)
        pod = cluster.kubectl.get_pods(selector={"deployment": "api"})[0]
        node_name = pod.node_name
        cluster.crash_node(node_name)
        kernel.run(until=20.0)
        node = cluster.api.get("Node", node_name)
        assert node.condition == NOT_READY
        replacement = [p for p in cluster.kubectl.get_pods(selector={"deployment": "api"})
                       if not p.deletion_requested and not p.is_terminal()]
        assert len(replacement) == 1
        assert replacement[0].node_name != node_name

    def test_restarted_node_becomes_ready(self, kernel, cluster):
        cluster.crash_node("node-0")
        kernel.run(until=10.0)
        assert cluster.api.get("Node", "node-0").condition == NOT_READY
        cluster.restart_node("node-0")
        kernel.run(until=15.0)
        assert cluster.api.get("Node", "node-0").condition == READY

    def test_readiness_flips_are_api_writes(self, kernel, cluster):
        watch = cluster.api.watch("Node")
        seen = []

        def watcher():
            while True:
                event_type, node = yield watch.get()
                seen.append((event_type, node.metadata.name, node.condition))

        kernel.spawn(watcher())
        cluster.crash_node("node-0")
        kernel.run(until=10.0)
        cluster.restart_node("node-0")
        kernel.run(until=15.0)
        assert seen == [("MODIFIED", "node-0", NOT_READY),
                        ("MODIFIED", "node-0", READY)]

    def test_statefulset_pod_moves_off_dead_node(self, kernel, cluster):
        def make_workload():
            def workload(ctx):
                yield ctx.kernel.sleep(1000.0)
                return 0

            return workload

        sset = StatefulSet("learner", template(make_workload, RESTART_ALWAYS), replicas=1)
        cluster.api.create(sset)
        kernel.run(until=5.0)
        pod = cluster.kubectl.get_pod("learner-0")
        dead_node = pod.node_name
        cluster.crash_node(dead_node)
        kernel.run(until=30.0)
        replacement = cluster.kubectl.get_pod("learner-0")
        assert replacement.phase == "Running"
        assert replacement.node_name != dead_node

    def test_dead_node_resources_released(self, kernel, cluster):
        def make_workload():
            def workload(ctx):
                yield ctx.kernel.sleep(1000.0)
                return 0

            return workload

        sset = StatefulSet("learner", template(make_workload, RESTART_ALWAYS), replicas=1)
        # Give the pod GPUs via a custom template.
        def spec_factory():
            return PodSpec(
                containers=[ContainerSpec("main", "tiny",
                                          workload=make_workload()(), gpus=0)],
                restart_policy=RESTART_ALWAYS,
            )

        cluster.api.create(sset)
        kernel.run(until=5.0)
        pod = cluster.kubectl.get_pod("learner-0")
        node = cluster.api.get("Node", pod.node_name)
        assert node.allocated_cpu > 0
        cluster.crash_node(pod.node_name)
        kernel.run(until=30.0)
        assert node.allocated_cpu == 0


class TestNetworkPolicy:
    def test_default_allow(self, cluster):
        assert cluster.network_allowed({"app": "a"}, {"app": "b"})

    def test_policy_blocks_unselected_sources(self, kernel, cluster):
        policy = NetworkPolicy(
            "learner-isolation",
            pod_selector={"role": "learner"},
            allow_from_selectors=[{"role": "learner"}, {"role": "helper"}],
        )
        cluster.api.create(policy)
        assert cluster.network_allowed({"role": "learner"}, {"role": "learner"})
        assert cluster.network_allowed({"role": "helper"}, {"role": "learner"})
        assert not cluster.network_allowed({"role": "other-tenant"}, {"role": "learner"})
        # Policy does not select helpers: still default-allow.
        assert cluster.network_allowed({"role": "other-tenant"}, {"role": "helper"})
