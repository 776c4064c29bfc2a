"""End-to-end job lifecycle tests: the platform as users see it."""

import pytest

from repro.core import AuthError, InvalidManifest, JobNotFound
from repro.core import layout

from .conftest import (
    CREDS,
    make_platform,
    manifest,
    submit_and_wait_running,
    submit_with_fault,
    wait_terminal,
)


class TestHappyPath:
    def test_job_completes_with_full_history(self, platform, client):
        job_id, doc = platform.run_process(
            client.run_to_completion(manifest()), limit=10_000
        )
        assert doc["status"] == "COMPLETED"
        statuses = [h["status"] for h in doc["status_history"]]
        assert statuses == ["QUEUED", "DEPLOYING", "DOWNLOADING", "PROCESSING",
                            "STORING", "COMPLETED"]
        times = [h["time"] for h in doc["status_history"]]
        assert times == sorted(times)

    def test_results_uploaded(self, platform, client):
        job_id, doc = platform.run_process(
            client.run_to_completion(manifest()), limit=10_000
        )
        keys = platform.object_store.list_objects("results", CREDS, prefix=job_id)
        assert f"{job_id}/model" in keys
        assert f"{job_id}/logs" in keys
        assert any("checkpoints" in k for k in keys)

    def test_logs_available_during_and_after(self, platform, client):
        job_id = submit_and_wait_running(platform, client, manifest())

        def tail_logs():
            return (yield from client.logs(job_id, tail=10))

        during = platform.run_process(tail_logs(), limit=600)
        assert during  # log lines visible while training
        wait_terminal(platform, client, job_id)
        after = platform.run_process(tail_logs(), limit=600)
        assert any("exiting with code 0" in line for line in after)

    def test_teardown_cleans_resources(self, platform, client):
        job_id, _doc = platform.run_process(
            client.run_to_completion(manifest()), limit=10_000
        )
        platform.run_for(30.0)  # allow teardown + LCM GC to finish
        k8s = platform.k8s.api
        assert not k8s.exists("StatefulSet", layout.learner_set_name(job_id))
        assert not k8s.exists("Deployment", layout.helper_deployment_name(job_id))
        assert not k8s.exists("NetworkPolicy", layout.network_policy_name(job_id))
        assert not k8s.exists("Job", layout.guardian_job_name(job_id))
        # ETCD left clean too.
        leader = platform.etcd.leader()
        assert leader.state_machine.range(f"jobs/{job_id}/") == []
        # And the GPUs are free again.
        assert platform.k8s.capacity_summary()["gpus_allocated"] == 0
        # The in-memory event log records the lifecycle against the job.
        reasons = {e.reason for e in platform.events.events(job=job_id)}
        assert {"GuardianCreated", "Deployed", "JobCompleted"} <= reasons

    def test_guardian_creation_under_three_seconds(self, platform, client):
        # Paper §III.d: Guardian creation is "a very quick (less than
        # 3s in our experiments) single step process".
        platform.run_process(client.run_to_completion(manifest()), limit=10_000)
        created = platform.tracer.query(component="lcm", kind="guardian-created")
        assert created
        ready = platform.tracer.query(component="guardian", kind="component-ready")
        assert ready
        assert ready[0].time - created[0].time < 3.0

    def test_gpu_seconds_metered(self, platform, client):
        platform.run_process(client.run_to_completion(manifest()), limit=10_000)

        def usage():
            # The Guardian meters GPU-seconds during teardown, after the
            # job reports COMPLETED.
            yield platform.kernel.sleep(5.0)
            return (yield from client.usage())

        report = platform.run_process(usage(), limit=600)
        assert report["jobs_submitted"] == 1
        assert report["gpus_requested"] == 1
        assert report["api_calls_total"] > 1
        assert report["gpu_seconds"] > 0


class TestDistributedJob:
    def test_multi_learner_job_completes(self, platform, client):
        spec = manifest(learners=3, framework="horovod", target_steps=40)
        job_id, doc = platform.run_process(
            client.run_to_completion(spec), limit=20_000
        )
        assert doc["status"] == "COMPLETED"

    def test_learner_statuses_visible(self, platform, client):
        spec = manifest(learners=2, framework="horovod", target_steps=200)
        job_id = submit_and_wait_running(platform, client, spec, timeout=600)

        def status():
            return (yield from client.status(job_id))

        doc = platform.run_process(status(), limit=600)
        assert set(doc["learners"]) == {"learner-0", "learner-1"}
        for report in doc["learners"].values():
            assert report["status"] == "PROCESSING"

    def test_multi_gpu_learners_scheduled(self, platform, client):
        spec = manifest(learners=2, gpus_per_learner=2, framework="tensorflow",
                        target_steps=30)
        job_id = submit_and_wait_running(platform, client, spec, timeout=600)
        assert platform.k8s.capacity_summary()["gpus_allocated"] == 4
        wait_terminal(platform, client, job_id)


def run_failing(platform, client):
    """A job whose learner 0 exits 1 at step 10; returns (job id, doc)."""
    job_id = submit_with_fault(platform, client, manifest(target_steps=100),
                               "fail", 10)
    doc = wait_terminal(platform, client, job_id, timeout=10_000)
    exit_record = platform.tracer.first(component="learner-0",
                                        kind="learner-exit", job=job_id)
    assert exit_record.fields["exit_code"] == 1  # the fault fired
    return job_id, doc


class TestFailingJob:
    def test_user_code_failure_marks_job_failed(self, platform, client):
        _job_id, doc = run_failing(platform, client)
        assert doc["status"] == "FAILED"

    def test_failed_job_resources_cleaned(self, platform, client):
        run_failing(platform, client)
        platform.run_for(30.0)
        assert platform.k8s.capacity_summary()["gpus_allocated"] == 0

    def test_logs_survive_failure(self, platform, client):
        # Paper §II: reliable log streaming "even if it crashes/fails".
        job_id, _doc = run_failing(platform, client)

        def tail_logs():
            return (yield from client.logs(job_id))

        lines = platform.run_process(tail_logs(), limit=600)
        assert any("exiting with code 1" in line for line in lines)


class TestHalt:
    def test_halt_running_job(self, platform, client):
        job_id = submit_and_wait_running(
            platform, client, manifest(target_steps=100_000)
        )

        def halt():
            return (yield from client.halt(job_id))

        platform.run_process(halt(), limit=600)
        doc = wait_terminal(platform, client, job_id, timeout=600)
        assert doc["status"] == "HALTED"
        platform.run_for(30.0)
        assert platform.k8s.capacity_summary()["gpus_allocated"] == 0

    def test_halt_queued_job_is_immediate(self):
        # Saturate the cluster so the second job stays QUEUED.
        platform = make_platform(gpu_nodes=1, gpus_per_node=1)
        client = platform.client("team-a")

        def scenario():
            first = yield from client.submit(manifest(target_steps=100_000))
            yield from client.wait_for_status(first, statuses={"PROCESSING"},
                                              timeout=600)
            second = yield from client.submit(manifest(target_steps=100_000))
            yield from client.halt(second)
            doc = yield from client.wait_for_status(second, timeout=120)
            return doc

        doc = platform.run_process(scenario(), limit=5_000)
        assert doc["status"] == "HALTED"


class TestMultiTenancy:
    def test_tenants_cannot_see_each_other(self, platform):
        alice, bob = platform.client("alice"), platform.client("bob")

        def scenario():
            job_id = yield from alice.submit(manifest())
            mine = yield from alice.list_jobs()
            theirs = yield from bob.list_jobs()
            return job_id, mine, theirs

        job_id, mine, theirs = platform.run_process(scenario(), limit=600)
        assert [j["job_id"] for j in mine] == [job_id]
        assert theirs == []

    def test_cross_tenant_status_denied(self, platform):
        alice, bob = platform.client("alice"), platform.client("bob")

        def scenario():
            job_id = yield from alice.submit(manifest())
            yield from bob.status(job_id)

        with pytest.raises(JobNotFound):
            platform.run_process(scenario(), limit=600)

    def test_bad_token_rejected(self, platform):
        from repro.core import DlaasClient

        intruder = DlaasClient(platform, "forged-token")

        def scenario():
            yield from intruder.list_jobs()

        with pytest.raises(AuthError):
            platform.run_process(scenario(), limit=600)

    def test_learner_network_isolation(self, platform, client):
        job_id = submit_and_wait_running(platform, client, manifest(target_steps=5000))
        learner = {"dlaas-job": job_id, "role": "learner"}
        helper = {"dlaas-job": job_id, "role": "helper"}
        other = {"dlaas-job": "job-99999", "role": "learner"}
        assert platform.k8s.network_allowed(helper, learner)
        assert platform.k8s.network_allowed(learner, learner)
        assert not platform.k8s.network_allowed(other, learner)


class TestValidation:
    def test_invalid_manifest_rejected_at_api(self, platform, client):
        def scenario():
            yield from client.submit(manifest(model="made-up-net"))

        with pytest.raises(InvalidManifest):
            platform.run_process(scenario(), limit=600)

    def test_rejected_submission_stores_nothing(self, platform, client):
        def scenario():
            try:
                yield from client.submit(manifest(target_steps=0))
            except InvalidManifest:
                pass
            return (yield from client.list_jobs())

        assert platform.run_process(scenario(), limit=600) == []


class TestConcurrentJobs:
    def test_parallel_jobs_all_complete(self, platform, client):
        def scenario():
            job_ids = []
            for i in range(3):
                spec = manifest(name=f"batch-{i}", target_steps=40)
                job_ids.append((yield from client.submit(spec)))
            docs = []
            for job_id in job_ids:
                docs.append((yield from client.wait_for_status(job_id, timeout=5000)))
            return docs

        docs = platform.run_process(scenario(), limit=20_000)
        assert [d["status"] for d in docs] == ["COMPLETED"] * 3

    def test_job_ids_unique_and_ordered(self, platform, client):
        def scenario():
            ids = []
            for _ in range(5):
                ids.append((yield from client.submit(manifest(target_steps=20))))
            return ids

        ids = platform.run_process(scenario(), limit=600)
        assert len(set(ids)) == 5
        assert ids == sorted(ids)

    def test_queued_job_runs_when_capacity_frees(self):
        platform = make_platform(gpu_nodes=1, gpus_per_node=1)
        client = platform.client("team-a")

        def scenario():
            first = yield from client.submit(manifest(target_steps=40))
            second = yield from client.submit(manifest(target_steps=40))
            doc1 = yield from client.wait_for_status(first, timeout=5000)
            doc2 = yield from client.wait_for_status(second, timeout=5000)
            return doc1, doc2

        doc1, doc2 = platform.run_process(scenario(), limit=20_000)
        assert doc1["status"] == "COMPLETED"
        assert doc2["status"] == "COMPLETED"

    def test_waiting_jobs_run_in_submission_order(self):
        # One 2-GPU node, two 2-GPU jobs: the second waits for the
        # first's learner to leave, first come, first served.
        platform = make_platform(gpu_nodes=1, gpus_per_node=2)
        client = platform.client("team")

        def scenario():
            first = yield from client.submit(manifest(
                name="first", gpus_per_learner=2, target_steps=120))
            second = yield from client.submit(manifest(
                name="second", gpus_per_learner=2, target_steps=120))
            doc1 = yield from client.wait_for_status(first, timeout=30_000)
            doc2 = yield from client.wait_for_status(second, timeout=30_000)
            return doc1, doc2

        doc1, doc2 = platform.run_process(scenario(), limit=200_000)
        assert doc1["status"] == doc2["status"] == "COMPLETED"
        assert doc1["completed_at"] < doc2["completed_at"]
