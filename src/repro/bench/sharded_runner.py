"""Sharded perf scenario: N platform cells driving the bench workload.

The cell driver below replays ``scale_runner.run_scale_scenario``'s
one-tenant job loop inside each cell — same tenant, same job names,
same submit-then-wait shape — so a one-cell sharded run is
bit-identical to the plain single-kernel run (asserted by
``benchmarks/bench_perf.py``). With several cells the drivers
additionally exchange federation traffic: periodic fire-and-forget
heartbeats while jobs run, and a final acked
``announce`` broadcast, which keeps the conservative-lookahead
protocol exercised under load instead of degenerating into
embarrassingly-parallel silence.

Everything here is module-level so ``multiprocessing`` workers can
rebuild the cells from pickled ``(builder, args)`` specs.
"""

from ..core import PlatformConfig, ShardedPlatform
from .platform_runner import CREDENTIALS, bench_manifest

HEARTBEAT_INTERVAL = 5.0


def bench_cell_driver(cell, jobs, steps, heartbeat=HEARTBEAT_INTERVAL):
    """Per-cell workload generator (see ``repro.core.sharded``)."""
    platform = cell.platform
    # Pure state setup — no events, no trace records — so doing it at
    # driver start (instead of before kernel start, as the plain bench
    # does) leaves the timeline untouched.
    platform.seed_training_data("bench-data", CREDENTIALS, size_mb=200)
    platform.ensure_results_bucket("bench-results", CREDENTIALS)
    client = platform.client("perf")
    if cell.num_cells > 1:
        cell.start_heartbeats(heartbeat)
    ids = []
    for i in range(jobs):
        manifest = bench_manifest("resnet50", "tensorflow", 2, "k80",
                                  steps=steps)
        manifest["name"] = f"perf-{i}"
        ids.append((yield from client.submit(manifest)))
    docs = []
    for job_id in ids:
        docs.append((yield from client.wait_for_status(job_id,
                                                       timeout=100_000)))
    cell.docs = docs
    if cell.num_cells > 1:
        yield from cell.broadcast(
            "announce",
            {"cell": cell.cell_id,
             "jobs": [doc["job_id"] for doc in docs]})


def build_sharded_bench(scenario, cells):
    """A :class:`ShardedPlatform` for one bench scenario.

    ``scenario`` is a dict of ``run_scale_scenario`` keywords (jobs/
    seed/steps/gpus_per_node/gpu_nodes); ``scenario["jobs"]`` is the
    total across
    all cells and must divide evenly so every cell replays an identical
    job count.
    """
    jobs, remainder = divmod(scenario["jobs"], cells)
    if remainder:
        raise ValueError(
            f"{scenario['jobs']} jobs do not divide over {cells} cells")
    config = PlatformConfig(
        gpu_nodes=scenario["gpu_nodes"],
        gpus_per_node=scenario["gpus_per_node"],
        gpu_type="k80",
        management_nodes=2,
    )
    return ShardedPlatform(
        config, cells, seed=scenario["seed"], driver=bench_cell_driver,
        driver_args=(jobs, scenario["steps"]), settle=30.0)


def run_sharded_scenario(scenario, cells, workers=None, executor="process"):
    """Build and run; returns the ShardedPlatform (digest/results set)."""
    return build_sharded_bench(scenario, cells).run(
        workers=workers, executor=executor)
