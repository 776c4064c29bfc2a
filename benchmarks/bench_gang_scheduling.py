"""Extension bench — gang scheduling for synchronous distributed jobs.

Multi-learner jobs block at MPI wire-up (paper §II: deployment involves
"setting up network (MPI) interconnections") until every learner runs.
Scenario on a 4-GPU node: job A (3 learners) trains; job B (3 learners)
queues; one of A's learners is crashed. Placed pod by pod, B's first
learner would hold the freed GPU at the barrier and A's replacement
could never place — a cross-job deadlock
(``tests/cluster/test_gang_scheduling.py`` shows it at the scheduler).
The Guardian gang-labels every multi-learner job, so partial placement
is refused and both jobs complete.
"""

from conftest import seed_buckets, training_manifest

from repro.bench import render_table
from repro.core import DlaasPlatform, Fault, PlatformConfig, fire

COLUMNS = ["gang scheduling", "job A", "job B", "GPUs stuck allocated"]


def _distributed_manifest(name, steps):
    return training_manifest(name, framework="horovod", learners=3,
                             target_steps=steps)


def run_scenario():
    platform = DlaasPlatform(
        seed=7,
        config=PlatformConfig(gpu_nodes=1, gpus_per_node=4, management_nodes=2),
    ).start()
    seed_buckets(platform)
    client = platform.client("bench")

    def submit():
        job_a = yield from client.submit(_distributed_manifest("job-a", 600))
        yield from client.wait_for_status(job_a, statuses={"PROCESSING"},
                                          timeout=2000)
        job_b = yield from client.submit(_distributed_manifest("job-b", 120))
        return job_a, job_b

    job_a, job_b = platform.run_process(submit(), limit=10_000)
    platform.run_for(30.0)
    fire(platform, Fault("learner-pod", (job_a, 1)))
    platform.run_for(1500.0)  # ample time for both jobs on a healthy path

    def statuses():
        a = yield from client.status(job_a)
        b = yield from client.status(job_b)
        return a["status"], b["status"]

    status_a, status_b = platform.run_process(statuses(), limit=600)
    return {
        "gang scheduling": "on",
        "job A": status_a,
        "job B": status_b,
        "GPUs stuck allocated": platform.k8s.capacity_summary()["gpus_allocated"],
    }


def test_gang_scheduling_prevents_deadlock(benchmark, record_table):
    row = benchmark.pedantic(run_scenario, rounds=1, iterations=1)
    table = render_table(
        "Gang scheduling extension: crash + queued distributed job (4 GPUs)",
        COLUMNS, [row],
    )
    record_table("gang_scheduling", table)

    assert row["job A"] == "COMPLETED"
    assert row["job B"] == "COMPLETED"
    assert row["GPUs stuck allocated"] == 0
