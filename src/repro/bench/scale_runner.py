"""Sharded control-plane scale runs (jobs x partitions x tenants).

One entry point, :func:`run_scale_scenario`, drives ``jobs`` concurrent
submissions through a platform whose control plane is split into
``partitions``:

* ``partitions == 1`` builds the *stock, unsharded* platform — not a
  one-slice sharded one — so its timeline anchors every comparison
  (``tests/integration/test_timeline_pin.py`` pins it);
* ``partitions > 1`` turns on the whole sharded stack: that many LCM
  replicas leasing job-id slices, consistent-hash routing at the API
  balancer, and a sharded docstore.

The tenant mix fans submissions round-robin over ``tenants`` client
tokens. With ``tenants == 1`` there is one client, token ``perf``: the
shape of the committed ``BENCH_perf.json`` digests.
"""

from ..core import timeline_digest
from .platform_runner import bench_manifest, build_platform

# 24 jobs cost ~940k kernel events at steps=60; scale the run cap with
# the job count instead of hoping one fixed number fits every sweep
# point (the old bench capped everything at 500k, which a 500-job run
# blows through before the first completion).
EVENT_LIMIT_FLOOR = 500_000
EVENTS_PER_JOB_BUDGET = 80_000


def event_limit(jobs):
    return max(EVENT_LIMIT_FLOOR, jobs * EVENTS_PER_JOB_BUDGET)


def partition_overrides(partitions):
    """PlatformConfig overrides for a control plane split ``p`` ways."""
    if partitions <= 1:
        return {}
    return {
        "api_ring_routing": True,
        "lcm_replicas": partitions,
        "lcm_slices": 2 * partitions,
        "mongo_shards": 2,
    }


def guardian_latencies(platform):
    created = {r.fields["job"]: r.time
               for r in platform.tracer.query(component="lcm",
                                              kind="guardian-created")}
    latencies = []
    for record in platform.tracer.query(component="guardian",
                                        kind="component-ready"):
        job = record.fields["job"]
        if job in created:
            latencies.append(record.time - created.pop(job))
    return sorted(latencies)


def run_scale_scenario(jobs, partitions, tenants=1, seed=2, steps=60,
                       gpus_per_node=4, gpu_nodes=8, gpus_per_job=2,
                       **config_overrides):
    """One measured run; returns the scale-table row."""
    overrides = partition_overrides(partitions)
    overrides.update(config_overrides)
    platform = build_platform("k80", gpus_per_node=gpus_per_node,
                              gpu_nodes=gpu_nodes, seed=seed, **overrides)
    tokens = (["perf"] if tenants <= 1
              else [f"tenant-{t}" for t in range(tenants)])
    clients = {token: platform.client(token) for token in tokens}

    def drive():
        ids = []
        for i in range(jobs):
            token = tokens[i % len(tokens)]
            manifest = bench_manifest("resnet50", "tensorflow",
                                      gpus_per_job, "k80", steps=steps)
            manifest["name"] = f"perf-{i}"
            ids.append((token,
                        (yield from clients[token].submit(manifest))))
        docs = []
        for token, job_id in ids:
            docs.append((yield from clients[token].wait_for_status(
                job_id, timeout=100_000)))
        return docs

    docs = platform.run_process(drive(), limit=event_limit(jobs))
    platform.run_for(30.0)

    kernel = platform.kernel
    latencies = guardian_latencies(platform)

    def pct(q):
        if not latencies:
            return 0.0
        return latencies[min(len(latencies) - 1, int(q * len(latencies)))]

    return {
        "jobs": jobs,
        "partitions": partitions,
        "tenants": tenants,
        "completed": sum(1 for d in docs if d["status"] == "COMPLETED"),
        "sim_s": round(kernel.now, 3),
        "events_processed": kernel.events_processed,
        "dispatches_inlined": kernel.dispatches_inlined,
        "guardian_p50_s": round(pct(0.50), 3),
        "guardian_p95_s": round(pct(0.95), 3),
        "guardian_max_s": round(latencies[-1], 3) if latencies else 0.0,
        "gpus_leaked": platform.k8s.capacity_summary()["gpus_allocated"],
        "digest": timeline_digest(platform, docs),
    }
