"""Dependability tests: every component crashes, the platform recovers.

These exercise the paper's core claims (§III, §IV): loose coupling —
"a learner can crash and be restarted by K8S independently of the
helper. Guardians can crash/restart independently of the LCM and API,
and so on" — plus checkpoint-bounded lost work and reliable status
updates across crashes.
"""

from repro.core import DlaasError, Fault, fire, layout, recovery_time

from .conftest import manifest, submit_and_wait_running, wait_terminal


class TestApiCrash:
    def test_requests_survive_api_pod_crash(self, platform, client):
        job_id = submit_and_wait_running(platform, client, manifest())
        fire(platform, Fault("api"))

        def status():
            return (yield from client.status(job_id))

        # The second API replica (or the restarted pod) serves the call.
        doc = platform.run_process(status(), limit=600)
        assert doc["job_id"] == job_id

    def test_api_recovers_within_band(self, platform, client):
        submit_and_wait_running(platform, client, manifest())
        when = platform.kernel.now
        fire(platform, Fault("api"))
        platform.run_for(20.0)
        recovery = recovery_time(platform, "api", when)
        assert recovery is not None
        assert 2.0 < recovery < 7.0

    def test_submission_survives_total_api_outage(self, platform):
        # Kill ALL API pods; a client submitting retries until a pod
        # returns, and the accepted job is durable.
        client = platform.client("team-a")
        for _ in range(2):
            fire(platform, Fault("api"))

        def scenario():
            job_id = yield from client.submit(manifest())
            doc = yield from client.wait_for_status(job_id, timeout=5000)
            return doc

        doc = platform.run_process(scenario(), limit=20_000)
        assert doc["status"] == "COMPLETED"


class TestLcmCrash:
    def test_job_completes_despite_lcm_crash_mid_run(self, platform, client):
        job_id = submit_and_wait_running(platform, client, manifest())
        fire(platform, Fault("lcm"))
        doc = wait_terminal(platform, client, job_id)
        assert doc["status"] == "COMPLETED"

    def test_queued_job_deployed_after_lcm_restart(self, platform, client):
        # Submit while the LCM is down: the durable QUEUED record is
        # picked up by the restarted LCM's reconcile loop.
        fire(platform, Fault("lcm"))

        def submit():
            return (yield from client.submit(manifest()))

        job_id = platform.run_process(submit(), limit=600)
        doc = wait_terminal(platform, client, job_id)
        assert doc["status"] == "COMPLETED"

    def test_lcm_recovers_within_band(self, platform, client):
        when = platform.kernel.now
        fire(platform, Fault("lcm"))
        platform.run_for(20.0)
        recovery = recovery_time(platform, "lcm", when)
        assert recovery is not None
        assert 3.0 < recovery < 8.0


class TestGuardianCrash:
    def test_job_completes_despite_guardian_crash(self, platform, client):
        job_id = submit_and_wait_running(platform, client, manifest(target_steps=120))
        fire(platform, Fault("guardian", job_id))
        doc = wait_terminal(platform, client, job_id)
        assert doc["status"] == "COMPLETED"

    def test_guardian_recovers_fast(self, platform, client):
        job_id = submit_and_wait_running(platform, client, manifest(target_steps=5000))
        when = platform.kernel.now
        fire(platform, Fault("guardian", job_id))
        platform.run_for(10.0)
        recovery = recovery_time(platform, "guardian", when, job=job_id)
        assert recovery is not None
        assert 0.5 < recovery < 3.0

    def test_status_updates_resume_after_guardian_crash(self, platform, client):
        job_id = submit_and_wait_running(platform, client, manifest(target_steps=400))
        fire(platform, Fault("guardian", job_id))
        doc = wait_terminal(platform, client, job_id)
        statuses = [h["status"] for h in doc["status_history"]]
        assert statuses[-1] == "COMPLETED"
        # The restarted guardian rolled the job back through DEPLOYING
        # at most; history never shows an illegal jump.
        assert statuses[0] == "QUEUED"


class TestHelperCrash:
    def test_job_completes_despite_helper_crash(self, platform, client):
        job_id = submit_and_wait_running(platform, client, manifest(target_steps=150))
        fire(platform, Fault("helper", job_id))
        doc = wait_terminal(platform, client, job_id)
        assert doc["status"] == "COMPLETED"

    def test_controller_restart_reconstructs_from_nfs(self, platform, client):
        # §III.f: "Using NFS makes status updates resilient to
        # controller crashes; K8S will restart the controller which can
        # read current status and previous statuses from NFS."
        job_id = submit_and_wait_running(platform, client, manifest(target_steps=300))
        when = platform.kernel.now
        fire(platform, Fault("controller-container", job_id))
        platform.run_for(15.0)
        recovery = recovery_time(platform, "controller", when, job=job_id)
        assert recovery is not None

        def status():
            return (yield from client.status(job_id))

        doc = platform.run_process(status(), limit=600)
        assert doc["status"] in ("PROCESSING", "STORING", "COMPLETED")
        doc = wait_terminal(platform, client, job_id)
        assert doc["status"] == "COMPLETED"


class TestLearnerCrash:
    def test_learner_pod_crash_job_still_completes(self, platform, client):
        job_id = submit_and_wait_running(platform, client, manifest(
            target_steps=300, checkpoint_interval=15.0))
        fire(platform, Fault("learner-pod", (job_id, 0)))
        doc = wait_terminal(platform, client, job_id)
        assert doc["status"] == "COMPLETED"

    def test_learner_resumes_from_checkpoint(self, platform, client):
        spec = manifest(target_steps=2000, checkpoint_interval=15.0)
        job_id = submit_and_wait_running(platform, client, spec)
        platform.run_for(60.0)  # accumulate checkpoints
        fire(platform, Fault("learner-pod", (job_id, 0)))
        platform.run_for(60.0)
        ready = [r for r in platform.tracer.query(component="learner-0",
                                                  kind="component-ready", job=job_id)]
        assert len(ready) >= 2
        # The restart resumed from a checkpoint, not from step zero.
        assert ready[-1].fields["resumed_step"] > 0

    def test_learner_container_crash_restarts_in_place(self, platform, client):
        spec = manifest(target_steps=2000, checkpoint_interval=15.0)
        job_id = submit_and_wait_running(platform, client, spec)
        platform.run_for(40.0)
        name = fire(platform, Fault("learner-container", job_id))
        platform.run_for(40.0)
        pod = platform.k8s.kubectl.get_pod(name)
        assert pod.restart_count >= 1
        assert pod.phase == "Running"

    def test_node_crash_reschedules_learner(self, platform, client):
        spec = manifest(target_steps=1500, checkpoint_interval=15.0)
        job_id = submit_and_wait_running(platform, client, spec)
        platform.run_for(40.0)
        fire(platform, Fault("node", job_id))
        doc = wait_terminal(platform, client, job_id, timeout=6000)
        assert doc["status"] == "COMPLETED"
        # And the replacement learner ran somewhere else.
        moved = [r for r in platform.tracer.query(component="learner-0",
                                                  kind="component-ready", job=job_id)]
        assert len(moved) >= 2

    def test_lost_work_bounded_by_checkpoint_interval(self, platform, client):
        interval = 20.0
        spec = manifest(target_steps=5000, checkpoint_interval=interval)
        job_id = submit_and_wait_running(platform, client, spec)

        def reported():
            """Learner 0's last report in etcd (read off the leader's
            state, no RPC): its step and its clock."""
            key = layout.learner_status_key(job_id, 0)
            report, _revision = \
                platform.etcd.leader().state_machine.get_with_revision(key)
            return report["step"], report["time"]

        platform.run_for(40.0)
        first_step, first_time = reported()
        platform.run_for(40.0)
        last_step, last_time = reported()
        fire(platform, Fault("learner-pod", (job_id, 0)))
        platform.run_for(60.0)
        ready = platform.tracer.query(component="learner-0", kind="component-ready",
                                      job=job_id)
        assert len(ready) >= 2
        resumed = ready[-1].fields["resumed_step"]
        rate = (last_step - first_step) / (last_time - first_time)
        assert rate > 0 and resumed > 0
        # A checkpoint every interval: at most two intervals of steps
        # lost. (A checkpoint after the last report makes it negative.)
        assert last_step - resumed <= 2 * interval * rate


class TestEtcdNodeCrash:
    def test_status_pipeline_survives_etcd_member_crash(self, platform, client):
        job_id = submit_and_wait_running(platform, client, manifest(target_steps=200))
        fire(platform, Fault("etcd-member", platform.etcd.leader().node_id))
        doc = wait_terminal(platform, client, job_id)
        assert doc["status"] == "COMPLETED"

    def test_mongo_member_crash_survived(self, platform, client):
        job_id = submit_and_wait_running(platform, client, manifest(target_steps=150))
        fire(platform, Fault("mongo-member", "mongo-0"))
        doc = wait_terminal(platform, client, job_id)
        assert doc["status"] == "COMPLETED"


class TestCompoundFailures:
    def test_guardian_and_learner_crash_same_job(self, platform, client):
        spec = manifest(target_steps=400, checkpoint_interval=15.0)
        job_id = submit_and_wait_running(platform, client, spec)
        fire(platform, Fault("guardian", job_id))
        platform.run_for(5.0)
        fire(platform, Fault("learner-pod", (job_id, 0)))
        doc = wait_terminal(platform, client, job_id)
        assert doc["status"] == "COMPLETED"

    def test_everything_crashes_once(self, platform, client):
        spec = manifest(target_steps=600, checkpoint_interval=15.0)
        job_id = submit_and_wait_running(platform, client, spec)
        fire(platform, Fault("api"))
        platform.run_for(3.0)
        fire(platform, Fault("lcm"))
        platform.run_for(3.0)
        fire(platform, Fault("guardian", job_id))
        platform.run_for(3.0)
        fire(platform, Fault("helper", job_id))
        platform.run_for(3.0)
        fire(platform, Fault("learner-pod", (job_id, 0)))
        doc = wait_terminal(platform, client, job_id, timeout=8000)
        assert doc["status"] == "COMPLETED"


class TestAbsentTarget:
    def test_every_job_crash_of_a_finished_job_is_a_dlaas_error(
            self, platform, client):
        # A chaos driver picks jobs at random and must be able to tell
        # "that target is gone" from a bug: every job-scoped fault on a
        # job whose pods were torn down says so with a DlaasError.
        job_id = submit_and_wait_running(platform, client, manifest())
        assert wait_terminal(platform, client, job_id)["status"] == "COMPLETED"
        platform.run_for(30.0)  # teardown
        assert not platform.k8s.kubectl.get_pods(selector={"dlaas-job": job_id})
        faults = [Fault("guardian", job_id), Fault("helper", job_id),
                  Fault("controller-container", job_id),
                  Fault("learner-pod", (job_id, 0)),
                  Fault("learner-container", job_id), Fault("node", job_id)]
        escaped = {}
        for fault in faults:
            try:
                fire(platform, fault)
            except DlaasError:
                continue
            except Exception as exc:
                escaped[fault.kind] = repr(exc)
            else:
                escaped[fault.kind] = "no error"
        assert escaped == {}
