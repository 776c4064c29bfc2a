"""A backlog does not storm: parked pods report per episode, not per pass.

Twelve two-GPU jobs on eight GPUs run in three waves, so most learner
pods wait for tens of seconds while the scheduler passes every 0.1 s.
Everything asserted is on the simulated clock or a count.
"""

from collections import Counter

from repro.cluster.scheduler import UNSCHEDULABLE_REPORT_INTERVAL
from repro.core import COMPLETED

from .conftest import make_platform, manifest

JOBS = 12


def test_backlogged_pods_report_once_per_interval_not_once_per_pass():
    platform = make_platform(seed=5)
    api = platform.k8s.api
    watch = api.watch("Pod")
    client = platform.client("team")

    def drive():
        job_ids = []
        for i in range(JOBS):
            job_ids.append((yield from client.submit(manifest(
                name=f"job-{i}", gpus_per_learner=2, target_steps=20))))
        docs = []
        for job_id in job_ids:
            docs.append((yield from client.wait_for_status(job_id,
                                                           timeout=100_000)))
        return docs

    docs = platform.run_process(drive(), limit=500_000)
    platform.run_for(30.0)
    assert [doc["status"] for doc in docs] == [COMPLETED] * JOBS
    assert platform.k8s.capacity_summary()["gpus_allocated"] == 0

    pods = []
    while len(watch):
        change, pod = watch.get_nowait()
        if change == "ADDED":
            pods.append(pod)
    watch.cancel()
    # No pod was replaced under its old name, so an event's pod name
    # stands for one uid.
    assert len(pods) >= 3 * JOBS
    assert len({pod.metadata.name for pod in pods}) == len(pods)

    bound_at = {e.name: e.time for e in api.events if e.reason == "Scheduled"}
    reports = Counter(e.name for e in api.events
                      if e.reason == "FailedScheduling")
    assert set(reports) <= {pod.metadata.name for pod in pods}
    for pod in pods:
        name = pod.metadata.name
        pending_s = bound_at[name] - pod.metadata.creation_time
        assert reports[name] <= 1 + pending_s // UNSCHEDULABLE_REPORT_INTERVAL, \
            (name, reports[name], pending_s)
    # The backlog is real (a pod waited through several intervals and
    # said so each time), and yet events stay a few per pod; a report
    # per pass makes this run 171 events per pod.
    assert max(reports.values()) >= 3
    assert len(api.events) <= 8 * len(pods)
