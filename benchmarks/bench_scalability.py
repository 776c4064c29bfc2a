"""Horizontal scalability bench (the paper's goal #2), sharded edition.

Drives batches of concurrent jobs through the platform — unsharded and
with the control plane split into partitions (LCM slice leases, ring
routing, docstore shards) — and checks that the control plane holds up:
every job completes, Guardian creation latency stays in its <3s band
*under load*, GPU capacity is fully released, and kernel events/sec
stays near-flat as partitions are added (the sharded machinery must not
tax the single-partition throughput it exists to multiply).

Invocations::

    # full measurement: 500 jobs at 1 and 4 partitions + smoke
    # baselines; writes the ``scale`` section of BENCH_perf.json
    PYTHONPATH=src python benchmarks/bench_scalability.py

    # one parameterized run (prints the row as JSON)
    PYTHONPATH=src python benchmarks/bench_scalability.py \\
        --jobs 128 --partitions 4 --tenants 8 --steps 30

    # CI smoke gate against the committed baselines
    PYTHONPATH=src python benchmarks/bench_scalability.py --check
"""

import argparse
import json
import sys
from pathlib import Path

from repro.bench import render_table, run_scale_scenario

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_perf.json"

# The headline scenario: 500 concurrent jobs, single-GPU on 64 GPUs,
# measured unsharded and split 4 ways. The GPU pool bounds the wall
# cost (hundreds of queued guardians tick for the whole makespan) while
# the control plane still holds all 500 jobs in flight at once.
SCALE_SCENARIO = {"jobs": 500, "steps": 30, "tenants": 8,
                  "gpus_per_node": 4, "gpu_nodes": 16, "gpus_per_job": 1,
                  "seed": 2}
SCALE_PARTITIONS = (1, 4)

# Smoke: same shape as bench_perf's SMOKE so the partitions=1 digest
# can be checked bit-for-bit against the plain perf baseline.
SMOKE_SCENARIO = {"jobs": 6, "steps": 30, "tenants": 1,
                  "gpus_per_node": 4, "gpu_nodes": 4, "gpus_per_job": 2,
                  "seed": 2}
SMOKE_PARTITIONS = (1, 2)

# Sharding must not tax throughput: events/sec at p>1 must hold this
# fraction of the single-partition rate (wall-clock noise allowed for).
NEAR_LINEAR_FLOOR = 0.6
CHECK_TOLERANCE = 1.35  # smoke wall regression gate


def run_partition_sweep(scenario, partitions):
    rows = {}
    for p in partitions:
        rows[str(p)] = run_scale_scenario(partitions=p, **scenario)
    return rows


def assert_scale(rows):
    base = rows["1"]
    for key, row in sorted(rows.items()):
        assert row["completed"] == row["jobs"], row
        assert row["gpus_leaked"] == 0, row
        # Guardian creation latency is recorded, not gated, here: at
        # 500-job saturation guardians queue on the fixed management
        # pool, so the §III.d <3s claim only applies unsaturated (the
        # pytest table below still gates it at 24 jobs).
        ratio = row["events_per_sec"] / base["events_per_sec"]
        assert ratio >= NEAR_LINEAR_FLOOR, (
            f"partitions={key}: events/sec fell to {ratio:.2f}x of the "
            f"single-partition rate (floor {NEAR_LINEAR_FLOOR})")
    return rows


def run_full():
    scale = {
        "scenario": SCALE_SCENARIO,
        "partitions": assert_scale(
            run_partition_sweep(SCALE_SCENARIO, SCALE_PARTITIONS)),
    }
    smoke_rows = run_partition_sweep(SMOKE_SCENARIO, SMOKE_PARTITIONS)
    scale["smoke"] = {
        "scenario": SMOKE_SCENARIO,
        "partitions": {
            key: {"wall_s": row["wall_s"], "digest": row["digest"]}
            for key, row in smoke_rows.items()
        },
    }
    return scale


def run_check():
    """CI smoke gate: the partitioned control plane on the small
    scenario vs the committed walls, plus the bit-identity anchor —
    a partitions=1 run must reproduce the plain perf-smoke digest."""
    if not RESULT_PATH.exists():
        print(f"error: {RESULT_PATH} missing; run the full bench first",
              file=sys.stderr)
        return 2
    committed = json.loads(RESULT_PATH.read_text())
    scale = committed.get("scale")
    if scale is None:
        print("scale smoke: WARNING no committed scale section; run "
              "benchmarks/bench_scalability.py (full) to create it")
        return 1
    failed = False
    for key in sorted(scale["smoke"]["partitions"]):
        row = run_scale_scenario(partitions=int(key),
                                 **scale["smoke"]["scenario"])
        baseline = scale["smoke"]["partitions"][key]
        limit = baseline["wall_s"] * CHECK_TOLERANCE
        status = "ok" if row["wall_s"] <= limit else "REGRESSION"
        failed |= status != "ok"
        print(f"scale smoke p={key}: wall={row['wall_s']}s "
              f"baseline={baseline['wall_s']}s limit={round(limit, 3)}s "
              f"[{status}]")
        if row["completed"] != row["jobs"] or row["gpus_leaked"] != 0:
            print(f"scale smoke p={key}: FAIL completed="
                  f"{row['completed']}/{row['jobs']} "
                  f"leaked={row['gpus_leaked']}", file=sys.stderr)
            failed = True
        if key == "1":
            # The acceptance anchor: one partition IS the unsharded
            # platform, bit for bit, against the plain perf smoke.
            perf_digest = committed.get("smoke", {}).get("digest")
            if perf_digest is None:
                print("scale smoke: WARNING no plain perf smoke digest "
                      "committed; run bench_perf.py to refresh")
            elif row["digest"] != perf_digest:
                print("scale smoke p=1: FAIL digest differs from the "
                      "unsharded perf smoke — the sharded control plane "
                      "leaked into the default configuration",
                      file=sys.stderr)
                failed = True
    return 1 if failed else 0


# ----------------------------------------------------------------------
# pytest-benchmark entry (the historical table, now partition-aware)
# ----------------------------------------------------------------------

COLUMNS = ["jobs", "partitions", "completed", "wall_s",
           "events_per_sec", "guardian_p95_s", "guardian_max_s",
           "gpus_leaked"]


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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="smoke gate against committed BENCH_perf.json")
    parser.add_argument("--jobs", type=int, default=None,
                        help="run one parameterized row with this many jobs")
    parser.add_argument("--partitions", type=int, default=1,
                        help="control-plane partitions for the single row")
    parser.add_argument("--tenants", type=int, default=1,
                        help="tenant mix for the single row")
    parser.add_argument("--steps", type=int, default=30,
                        help="training steps per job for the single row")
    parser.add_argument("--gpus-per-job", type=int, default=1)
    parser.add_argument("--gpu-nodes", type=int, default=8)
    args = parser.parse_args(argv)
    if args.check:
        return run_check()
    if args.jobs is not None:
        row = run_scale_scenario(
            jobs=args.jobs, partitions=args.partitions,
            tenants=args.tenants, steps=args.steps,
            gpus_per_node=4, gpu_nodes=args.gpu_nodes,
            gpus_per_job=args.gpus_per_job, seed=2)
        print(json.dumps(row, indent=2))
        return 0
    scale = run_full()
    result = (json.loads(RESULT_PATH.read_text())
              if RESULT_PATH.exists() else {})
    result["scale"] = scale
    RESULT_PATH.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(scale, indent=2))
    print(f"updated scale section of {RESULT_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
