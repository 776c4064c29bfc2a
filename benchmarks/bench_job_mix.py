"""Day-in-the-life bench: a stochastic job mix on a shared cluster.

Poisson job arrivals drawn from a realistic mix (mostly small jobs,
some multi-GPU, a few distributed) run against one platform, and GPU
utilization is read back from the monitoring store's scraped
``cluster_gpus_allocated`` series — the shared-hardware economics of
the paper's §I, measured. Assertions pin the dependable-by-default
behaviour: everything completes, nothing leaks, utilization is real.
"""

from repro.bench import build_platform, render_table
from repro.bench.platform_runner import CREDENTIALS
from repro.bench.workloads import WorkloadGenerator

COLUMNS = ["jobs", "arrival rate /s", "completed", "mean util %", "peak util %",
           "mean wait s", "makespan s"]


def run_day(jobs=14, rate=0.05, seed=12):
    platform = build_platform("k80", gpus_per_node=4, gpu_nodes=4, seed=seed)
    client = platform.client("mix")
    generator = WorkloadGenerator(
        platform, data_bucket="bench-data", results_bucket="bench-results",
        credentials=CREDENTIALS,
    )
    store = platform.monitoring.store
    (allocated,) = store.series("cluster_gpus_allocated")
    (total,) = store.series("cluster_gpus_total")
    samples = {}

    def read_back():
        # The store keeps 600 s of samples: collect them twice as often.
        while True:
            samples.update(allocated.window(start))
            yield platform.kernel.sleep(300.0)

    def scenario():
        job_ids = yield from generator.poisson_arrivals(client, jobs, rate)
        docs = []
        for job_id in job_ids:
            docs.append((yield from client.wait_for_status(job_id,
                                                           timeout=100_000)))
        return docs

    start = platform.kernel.now
    reader = platform.kernel.spawn(read_back())
    docs = platform.run_process(scenario(), limit=500_000)
    makespan = platform.kernel.now - start
    reader.kill()
    samples.update(allocated.window(start))

    waits = []
    for doc in docs:
        history = {h["status"]: h["time"] for h in doc["status_history"]}
        if "PROCESSING" in history:
            waits.append(history["PROCESSING"] - history["QUEUED"])
    gpus = total.latest_value()
    util = [value / gpus for value in samples.values()]
    return {
        "jobs": jobs,
        "arrival rate /s": rate,
        "completed": sum(1 for d in docs if d["status"] == "COMPLETED"),
        "mean util %": sum(util) / len(util) * 100,
        "peak util %": max(util) * 100,
        "mean wait s": sum(waits) / len(waits),
        "makespan s": makespan,
    }, platform


def test_job_mix(benchmark, record_table):
    def run():
        return run_day()

    row, platform = benchmark.pedantic(run, rounds=1, iterations=1)
    table = render_table(
        "Job-mix soak: Poisson arrivals from a mixed population (16 GPUs)",
        COLUMNS, [row],
    )
    record_table("job_mix", table)

    assert row["completed"] == row["jobs"]
    assert row["peak util %"] > 30.0  # demand actually hit the cluster
    assert platform.k8s.capacity_summary()["gpus_allocated"] == 0
