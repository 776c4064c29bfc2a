"""Reliable status updates (paper §III.f).

The pipeline is learner files on NFS -> controller -> ETCD -> Guardian
-> MongoDB -> user. These tests verify the properties the paper claims:
statuses are timely, monotone, survive crashes of every stage, and the
timestamps users rely on for profiling are consistent.
"""

from repro.core import Fault, fire, layout

from .conftest import manifest, submit_and_wait_running, wait_terminal


def status_history(platform, client, job_id):
    def read():
        doc = yield from client.status(job_id)
        return doc

    return platform.run_process(read(), limit=600)


RANK = {s: i for i, s in enumerate(
    ["QUEUED", "DEPLOYING", "DOWNLOADING", "PROCESSING", "STORING",
     "COMPLETED", "FAILED", "HALTED"]
)}


def assert_history_sane(history):
    times = [h["time"] for h in history]
    assert times == sorted(times), f"timestamps not monotone: {history}"
    statuses = [h["status"] for h in history]
    assert statuses[0] == "QUEUED"
    assert len(statuses) == len(set(zip(statuses, times))), "duplicate entries"
    # Only legal backward move is re-deployment after rollback.
    for a, b in zip(statuses, statuses[1:]):
        if RANK[b] < RANK[a]:
            assert b == "DEPLOYING", f"illegal backward move {a}->{b}"


class TestStatusPipeline:
    def test_full_history_has_sane_timestamps(self, platform, client):
        job_id, doc = platform.run_process(
            client.run_to_completion(manifest()), limit=10_000
        )
        assert_history_sane(doc["status_history"])

    def test_status_latency_is_bounded(self, platform, client):
        # A learner that starts PROCESSING should be visible as such to
        # the user within a few poll/monitor cycles.
        job_id = submit_and_wait_running(platform, client, manifest(target_steps=2000))
        ready = platform.tracer.query(component="learner-0", kind="component-ready",
                                      job=job_id)
        first_processing = next(
            r for r in platform.tracer.query(component="guardian",
                                             kind="status-update")
            if r.fields["status"] == "PROCESSING" and r.fields["job"] == job_id
        )
        lag = first_processing.time - ready[0].time
        # controller poll (0.5) + etcd commit + monitor interval (1.0).
        assert 0 <= lag < 5.0

    def test_history_sane_across_guardian_crash(self, platform, client):
        job_id = submit_and_wait_running(platform, client, manifest(target_steps=200))
        fire(platform, Fault("guardian", job_id))
        doc = wait_terminal(platform, client, job_id)
        assert doc["status"] == "COMPLETED"
        assert_history_sane(doc["status_history"])

    def test_history_sane_across_controller_crash(self, platform, client):
        job_id = submit_and_wait_running(platform, client, manifest(target_steps=200))
        fire(platform, Fault("controller-container", job_id))
        doc = wait_terminal(platform, client, job_id)
        assert doc["status"] == "COMPLETED"
        assert_history_sane(doc["status_history"])

    def test_history_sane_across_etcd_leader_crash(self, platform, client):
        job_id = submit_and_wait_running(platform, client, manifest(target_steps=200))
        fire(platform, Fault("etcd-member", platform.etcd.leader().node_id))
        doc = wait_terminal(platform, client, job_id)
        assert doc["status"] == "COMPLETED"
        assert_history_sane(doc["status_history"])

    def test_learner_step_progress_is_monotone_per_incarnation(self, platform, client):
        job_id = submit_and_wait_running(platform, client, manifest(target_steps=300))
        leader = platform.etcd.leader()
        watch = leader.watch(layout.learner_status_prefix(job_id))
        wait_terminal(platform, client, job_id)
        steps = []
        while len(watch.channel):
            event = watch.channel.get_nowait()
            if event.type == "put" and isinstance(event.value, dict):
                steps.append(event.value.get("step", 0))
        assert steps == sorted(steps)

    def test_etcd_holds_authoritative_learner_state(self, platform, client):
        job_id = submit_and_wait_running(platform, client, manifest(target_steps=5000))
        platform.run_for(40.0)
        leader = platform.etcd.leader()
        kvs = leader.state_machine.range(layout.learner_status_prefix(job_id))
        assert len(kvs) == 1
        _key, report = kvs[0]
        assert report["status"] == "PROCESSING"
        assert report["step"] > 0

    def test_status_survives_simultaneous_controller_and_guardian_crash(
            self, platform, client):
        job_id = submit_and_wait_running(platform, client, manifest(target_steps=300))
        fire(platform, Fault("controller-container", job_id))
        fire(platform, Fault("guardian", job_id))
        doc = wait_terminal(platform, client, job_id)
        assert doc["status"] == "COMPLETED"
        assert_history_sane(doc["status_history"])
