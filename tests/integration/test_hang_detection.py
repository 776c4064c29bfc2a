"""Hang detection (extension): stalled learners are found and restarted.

Orderly failures write exit codes (§III.e) and crashes are restarted by
Kubernetes (§III.h) — but a hung learner produces neither signal. The
controller's stall detector + the Guardian's restart close the gap.
"""

from repro.core.helpers import STALL_TIMEOUT

from .conftest import make_platform, manifest, submit_with_fault, wait_terminal


def submit_hanging(platform, client):
    spec = manifest(target_steps=200, checkpoint_interval=10.0)
    return submit_with_fault(platform, client, spec, "hang", 60)


class TestHangDetection:
    def test_hung_learner_detected_and_job_completes(self):
        platform = make_platform()
        client = platform.client("team")
        job_id = submit_hanging(platform, client)
        doc = wait_terminal(platform, client, job_id, timeout=10_000)
        assert doc["status"] == "COMPLETED"
        restarts = platform.tracer.query(component="guardian",
                                         kind="stall-restart", job=job_id)
        assert len(restarts) == 1  # the hang fired once, then trained clean
        assert restarts[0].fields["learner"] == 0
        assert restarts[0].fields["stalled_for"] >= STALL_TIMEOUT

    def test_restarted_learner_resumes_from_checkpoint(self):
        platform = make_platform()
        client = platform.client("team")
        job_id = submit_hanging(platform, client)
        wait_terminal(platform, client, job_id, timeout=10_000)
        assert platform.tracer.query(component="guardian",
                                     kind="stall-restart", job=job_id)
        ready = platform.tracer.query(component="learner-0",
                                      kind="component-ready", job=job_id)
        assert len(ready) >= 2
        assert ready[-1].fields["resumed_step"] > 0

    def test_healthy_slow_job_not_flagged(self):
        # Checkpoint uploads and slow steps must not trip the detector:
        # VGG-16 on a K80 steps ~1s and uploads ~1.1GB checkpoints, so
        # legitimate gaps between status updates approach 30s; the
        # timeout (STALL_TIMEOUT, 90s) must sit above that.
        platform = make_platform()
        client = platform.client("team")
        spec = manifest(target_steps=120, checkpoint_interval=15.0,
                        model="vgg16", framework="caffe")

        def submit():
            return (yield from client.submit(spec))

        job_id = platform.run_process(submit(), limit=600)
        doc = wait_terminal(platform, client, job_id, timeout=10_000)
        assert doc["status"] == "COMPLETED"
        assert not platform.tracer.query(component="guardian",
                                         kind="stall-restart")
