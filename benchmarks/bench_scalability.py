"""Horizontal scalability bench (the paper's goal #2).

Drives batches of concurrent jobs through the platform — unsharded and
with the control plane split into partitions (LCM slice leases, ring
routing, docstore shards) — and checks that the control plane holds up:
every job completes, Guardian creation latency stays in its <3s band
*under load*, and GPU capacity is fully released. What the simulator
costs the host at 192 jobs, stock and partitioned, is perfbench's
``scale`` and ``partitioned`` workloads; the 6-job smoke timelines are
pinned in ``tests/integration/test_timeline_pin.py``.

Run it with the other paper benches (``make bench``)::

    PYTHONPATH=src python -m pytest benchmarks/bench_scalability.py

Every column is on the simulated clock, so the table is the same on any
host; the host-clock cost of a scale run is perfbench's.
"""

from repro.bench import render_table, run_scale_scenario

COLUMNS = ["jobs", "partitions", "completed", "sim_s", "guardian_p95_s",
           "guardian_max_s", "gpus_leaked"]


def test_scalability(benchmark, record_table):
    def sweep():
        rows = []
        for jobs in (4, 12, 24):
            rows.append(run_scale_scenario(
                jobs=jobs, partitions=1, steps=60, gpus_per_node=4,
                gpu_nodes=8, gpus_per_job=2, seed=2))
        rows.append(run_scale_scenario(
            jobs=24, partitions=2, steps=60, gpus_per_node=4,
            gpu_nodes=8, gpus_per_job=2, seed=2))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = render_table(
        "Scalability: concurrent jobs through the control plane "
        "(32 GPUs; last row splits the control plane into 2 partitions)",
        COLUMNS, [{c: row[c] for c in COLUMNS} for row in rows],
    )
    record_table("scalability", table)

    for row in rows:
        assert row["completed"] == row["jobs"]
        assert row["gpus_leaked"] == 0
        # §III.d's latency claim must hold under load too.
        assert row["guardian_max_s"] < 3.0
    # 24 jobs x 2 GPUs exceed the 32-GPU pool: the excess must queue
    # (longer makespan), never fail.
    assert rows[2]["sim_s"] > rows[0]["sim_s"] * 1.2

