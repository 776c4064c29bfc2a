#!/usr/bin/env python3
"""Multi-tenant cluster day: mixed workloads, queueing, isolation, metering.

Three tenants share one GPU cluster (the paper's core economic
motivation, §I): jobs with different frameworks, models and GPU shapes
contend for capacity, the scheduler bin-packs them, late arrivals queue
until GPUs free up, tenants cannot see each other's jobs, and metering
accounts per-tenant usage.

Run:  python examples/multi_tenant_cluster.py
"""

from repro import DlaasPlatform
from repro.core import PlatformConfig
from repro.monitoring import sparkline

CREDENTIALS = {"access_key": "AK", "secret": "SK"}

WORKLOADS = {
    "vision-team": [
        ("vgg16", "caffe", 1, 2, 120),
        ("resnet50", "tensorflow", 1, 2, 150),
    ],
    "speech-team": [
        ("inceptionv3", "tensorflow", 1, 1, 150),
        ("resnet50", "horovod", 2, 1, 100),
    ],
    "research-lab": [
        ("alexnet", "pytorch", 1, 1, 200),
        ("googlenet", "tensorflow", 1, 4, 80),
    ],
}


def main():
    platform = DlaasPlatform(
        seed=99,
        config=PlatformConfig(gpu_nodes=3, gpus_per_node=4, gpu_type="k80"),
    ).start()
    platform.seed_training_data("shared-datasets", CREDENTIALS, size_mb=400)
    platform.ensure_results_bucket("shared-results", CREDENTIALS)

    clients = {tenant: platform.client(tenant) for tenant in WORKLOADS}

    def submit_all():
        submitted = []  # (tenant, job_id)
        for tenant, jobs in WORKLOADS.items():
            client = clients[tenant]
            for model, framework, learners, gpus, steps in jobs:
                manifest = {
                    "name": f"{model}-{framework}",
                    "framework": framework,
                    "model": model,
                    "learners": learners,
                    "gpus_per_learner": gpus,
                    "gpu_type": "k80",
                    "target_steps": steps,
                    "checkpoint_interval": 60.0,
                    "dataset_size_mb": 400,
                    "data": {"bucket": "shared-datasets",
                             "credentials": CREDENTIALS},
                    "results": {"bucket": "shared-results",
                                "credentials": CREDENTIALS},
                }
                job_id = yield from client.submit(manifest)
                submitted.append((tenant, job_id))
        return submitted

    submitted = platform.run_process(submit_all(), limit=5_000)
    total_gpus = platform.k8s.capacity_summary()["gpus_total"]
    requested = sum(
        learners * gpus
        for jobs in WORKLOADS.values()
        for _m, _f, learners, gpus, _s in jobs
    )
    print(f"submitted {len(submitted)} jobs requesting {requested} GPUs "
          f"on a {total_gpus}-GPU cluster\n")

    platform.run_for(30.0)
    peak = platform.k8s.capacity_summary()
    print(f"t={platform.kernel.now:.0f}s: {peak['gpus_allocated']}/"
          f"{peak['gpus_total']} GPUs allocated (rest of demand queued)\n")

    def drain():
        results = []
        for tenant, job_id in submitted:
            doc = yield from clients[tenant].wait_for_status(job_id, timeout=30_000)
            results.append((tenant, job_id, doc))
        return results

    results = platform.run_process(drain(), limit=200_000)

    print(f"{'tenant':<14} {'job':<10} {'name':<22} {'status':<10} {'makespan':>9}")
    for tenant, job_id, doc in results:
        # The terminal status time: ``completed_at`` is written at the
        # Guardian's teardown, after the status a waiter returns on.
        makespan = doc["status_history"][-1]["time"] - doc["created_at"]
        print(f"{tenant:<14} {job_id:<10} {doc['name']:<22} "
              f"{doc['status']:<10} {makespan:>8.0f}s")

    print("\ntenant isolation: each tenant sees only its own jobs")
    for tenant, client in clients.items():
        def listing(client=client):
            return (yield from client.list_jobs())

        jobs = platform.run_process(listing(), limit=600)
        print(f"  {tenant:<14} sees {len(jobs)} job(s)")

    print("\nmetering:")
    for tenant, client in clients.items():
        def usage(client=client):
            return (yield from client.usage())

        report = platform.run_process(usage(), limit=600)
        print(f"  {tenant:<14} jobs={report['jobs_submitted']} "
              f"gpu_seconds={report.get('gpu_seconds', 0):9.0f} "
              f"api_calls={report['api_calls_total']}")

    # The scraper's GPU gauge over the store's retained window.
    (allocated,) = platform.monitoring.store.series("cluster_gpus_allocated")
    points = allocated.values()
    print(f"\nGPUs allocated over the last {len(points)} scrapes "
          f"(peak {max(points):g} of {total_gpus})")
    print(f"[{sparkline(points, width=50, maximum=total_gpus)}]")


if __name__ == "__main__":
    main()
