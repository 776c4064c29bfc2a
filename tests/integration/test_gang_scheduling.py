"""End-to-end gang scheduling: distributed jobs on a tight cluster.

A synchronous multi-learner job blocks at MPI wire-up until every
learner is placed. Placed learner by learner, a waiting job's first
learner could grab the GPU a crashed learner's replacement needs,
deadlocking both jobs (``tests/cluster/test_gang_scheduling.py`` shows
that at the scheduler). The Guardian gang-labels every multi-learner
job, so placement is all-or-nothing and both jobs complete.
"""

from repro.core import Fault, fire

from .conftest import make_platform, manifest


def distributed_manifest(name, steps=120):
    return manifest(name=name, framework="horovod", learners=3,
                    target_steps=steps, checkpoint_interval=15.0)


def start_scenario():
    # One node, 4 GPUs: job A (3 learners) fits, job B (3 learners) must wait.
    platform = make_platform(gpu_nodes=1, gpus_per_node=4)
    client = platform.client("team")

    def submit():
        job_a = yield from client.submit(distributed_manifest("job-a", steps=600))
        yield from client.wait_for_status(job_a, statuses={"PROCESSING"},
                                          timeout=2000)
        job_b = yield from client.submit(distributed_manifest("job-b", steps=120))
        return job_a, job_b

    job_a, job_b = platform.run_process(submit(), limit=10_000)
    platform.run_for(30.0)  # job B's learners stay pending, none bound
    # Crash one of A's learners: its replacement needs a free GPU.
    fire(platform, Fault("learner-pod", (job_a, 1)))
    return platform, client, job_a, job_b


class TestGangScheduling:
    def test_with_gang_scheduling_both_jobs_complete(self):
        platform, client, job_a, job_b = start_scenario()

        def wait_both():
            a = yield from client.wait_for_status(job_a, timeout=30_000)
            b = yield from client.wait_for_status(job_b, timeout=30_000)
            return a["status"], b["status"]

        status_a, status_b = platform.run_process(wait_both(), limit=200_000)
        assert status_a == "COMPLETED"
        assert status_b == "COMPLETED"
