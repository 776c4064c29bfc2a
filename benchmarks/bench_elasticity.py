"""Extension bench — elasticity via the cluster autoscaler.

The paper's platform goals include elasticity. A burst of jobs beyond
the fixed pool's capacity either queues (fixed cluster) or triggers
node provisioning (autoscaled cluster, paying a realistic VM boot
delay). Measures per-job queue time and burst makespan.
"""

from conftest import seed_buckets, training_manifest

from repro.bench import render_table
from repro.core import DlaasPlatform, PlatformConfig

COLUMNS = ["cluster", "jobs", "completed", "mean wait s", "max wait s",
           "burst makespan s", "nodes provisioned"]


def _manifest(name):
    return training_manifest(name, gpus_per_learner=4,
                             checkpoint_interval=0.0)


def run_burst(autoscaled, jobs=6):
    platform = DlaasPlatform(
        seed=21,
        config=PlatformConfig(gpu_nodes=1, gpus_per_node=4, management_nodes=2),
    )
    autoscaler = None
    if autoscaled:
        autoscaler = platform.enable_autoscaler(max_nodes=6, boot_time=60.0,
                                                idle_timeout=120.0)
    platform.start()
    seed_buckets(platform)
    client = platform.client("burst")

    def scenario():
        ids = []
        for i in range(jobs):
            ids.append((yield from client.submit(_manifest(f"burst-{i}"))))
        docs = []
        for job_id in ids:
            docs.append((yield from client.wait_for_status(job_id,
                                                           timeout=100_000)))
        return docs

    start = platform.kernel.now
    docs = platform.run_process(scenario(), limit=500_000)
    makespan = platform.kernel.now - start
    # Wait = submission to first training step (QUEUED -> PROCESSING):
    # the user-visible queueing cost of an overloaded pool.
    waits = []
    for doc in docs:
        history = {h["status"]: h["time"] for h in doc["status_history"]}
        waits.append(history["PROCESSING"] - history["QUEUED"])
    return {
        "cluster": "autoscaled" if autoscaled else "fixed (1 node)",
        "jobs": jobs,
        "completed": sum(1 for d in docs if d["status"] == "COMPLETED"),
        "mean wait s": sum(waits) / len(waits),
        "max wait s": max(waits),
        "burst makespan s": makespan,
        "nodes provisioned": autoscaler.scale_ups if autoscaler else 0,
    }


def test_elasticity(benchmark, record_table):
    def run_both():
        return [run_burst(False), run_burst(True)]

    rows = benchmark.pedantic(run_both, rounds=1, iterations=1)
    table = render_table(
        "Elasticity extension: 6-job burst of 4-GPU jobs on a 4-GPU pool",
        COLUMNS, rows,
    )
    record_table("elasticity", table)

    fixed, elastic = rows
    assert fixed["completed"] == elastic["completed"] == 6
    assert elastic["nodes provisioned"] >= 1
    # Elasticity shortens the burst: jobs run in parallel on new nodes
    # instead of serializing behind the single fixed node.
    assert elastic["burst makespan s"] < fixed["burst makespan s"]
    assert elastic["max wait s"] < fixed["max wait s"]

