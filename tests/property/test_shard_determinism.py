"""The sharded kernel's central property: execution-count invariance.

The merged timeline of a partitioned bench scenario must be identical
— digest for digest — whether the cells run interleaved on one worker,
spread over several OS processes, or on the inline executor; and the
property must survive chaos (component crashes injected inside the
cells) because dependability scenarios are exactly where the sharded
runner will be pointed.

Everything here is module-level so forked workers can rebuild cells
from their pickled specs.
"""

from repro.bench import bench_manifest, build_sharded_bench
from repro.bench.platform_runner import CREDENTIALS
from repro.core import ComponentCrasher, PlatformConfig, ShardedPlatform

SCENARIO = {"jobs": 4, "seed": 11, "steps": 10, "gpus_per_node": 4,
            "gpu_nodes": 8}


def _chaos_actor(cell, crasher, job_ids, mtbf, stop):
    kernel = cell.platform.kernel
    rng = kernel.rng("shard-chaos")
    kinds = ("learner-pod", "guardian", "api")
    while not stop.triggered:
        yield kernel.sleep(rng.expovariate(1.0 / mtbf))
        if stop.triggered:
            return
        kind = rng.choice(kinds)
        try:
            if kind == "learner-pod":
                crasher.crash_learner(rng.choice(job_ids))
            elif kind == "guardian":
                crasher.crash_guardian(rng.choice(job_ids))
            else:
                crasher.crash_api()
        except Exception:
            continue  # target absent right now; the monkey moves on


def chaos_cell_driver(cell, jobs, steps, mtbf):
    """Bench cell driver plus a per-cell chaos monkey."""
    platform = cell.platform
    platform.seed_training_data("bench-data", CREDENTIALS, size_mb=200)
    platform.ensure_results_bucket("bench-results", CREDENTIALS)
    client = platform.client("chaos")
    crasher = ComponentCrasher(platform)
    cell.start_heartbeats(7.0)
    ids = []
    for i in range(jobs):
        manifest = bench_manifest("resnet50", "tensorflow", 1, "k80",
                                  steps=steps)
        manifest["name"] = f"chaos-{i}"
        manifest["checkpoint_interval"] = 20.0
        ids.append((yield from client.submit(manifest)))
    stop = platform.kernel.event()
    platform.kernel.spawn(_chaos_actor(cell, crasher, ids, mtbf, stop),
                          name=f"cell-{cell.cell_id}-chaos")
    docs = []
    for job_id in ids:
        docs.append((yield from client.wait_for_status(job_id,
                                                       timeout=100_000)))
    if not stop.triggered:
        stop.succeed()
    cell.docs = docs
    if cell.num_cells > 1:
        yield from cell.broadcast(
            "announce",
            {"cell": cell.cell_id, "jobs": [d["job_id"] for d in docs]})


def build_chaos_sharded(cells, jobs_per_cell=2, mtbf=40.0):
    config = PlatformConfig(
        gpu_nodes=4, gpus_per_node=4, gpu_type="k80", management_nodes=2)
    return ShardedPlatform(config, cells, seed=23, driver=chaos_cell_driver,
                           driver_args=(jobs_per_cell, 30, mtbf),
                           settle=30.0)


def test_digest_invariant_across_worker_counts():
    runs = {}
    for label, kwargs in (
        ("inline", {"executor": "inline"}),
        ("w1", {"executor": "process", "workers": 1}),
        ("w2", {"executor": "process", "workers": 2}),
        ("w4", {"executor": "process", "workers": 4}),
    ):
        runs[label] = build_sharded_bench(SCENARIO, cells=4).run(**kwargs)
    digests = {label: run.digest for label, run in runs.items()}
    assert len(set(digests.values())) == 1, digests
    reference = runs["inline"]
    for run in runs.values():
        assert run.results == reference.results
        assert run.stats == reference.stats
    assert all(r["completed"] == r["jobs"] for r in reference.results)
    assert reference.stats["messages_routed"] > 0  # not trivially parallel


def test_chaos_soak_digest_invariant_and_no_job_lost():
    sequential = build_chaos_sharded(cells=2).run(executor="process",
                                                  workers=1)
    parallel = build_chaos_sharded(cells=2).run(executor="process",
                                                workers=2)
    assert sequential.digest == parallel.digest
    assert sequential.results == parallel.results
    # the dependability claim survives sharding: every job completes
    for result in sequential.results:
        assert result["completed"] == result["jobs"], result
        assert result["driver_failed"] is None
