"""Sharded-kernel measurement (``repro.core.sharded``).

The 128-job workload run once on a single kernel and once partitioned
into 4 platform cells — identical aggregate GPU capacity — on 1 worker
and on 4 multiprocessing workers. Two things are asserted, both exact:
the merged timeline is identical for every worker count, and a 1-cell
sharded run replays the unsharded 24-job platform bit for bit. Wall
times and their ratios are recorded for ROADMAP item 5 to judge and
never compared to a limit; host-cost claims are made with perfbench.

Writes the ``sharded`` section of ``BENCH_perf.json``::

    PYTHONPATH=src python benchmarks/bench_perf.py
"""

import json
import os
import sys
import time

from conftest import write_section

from repro.bench import build_sharded_bench, run_scale_scenario

SCENARIO = {"jobs": 24, "seed": 2, "steps": 60, "gpus_per_node": 4,
            "gpu_nodes": 8}
SHARDED_SCENARIO = {"jobs": 128, "seed": 2, "steps": 60,
                    "gpus_per_node": 4, "gpu_nodes": 8}
SHARDED_CELLS = 4
SHARDED_SMOKE = {"jobs": 6, "seed": 2, "steps": 30, "gpus_per_node": 4,
                 "gpu_nodes": 4}
SHARDED_SMOKE_CELLS = 2


def run_sharded(scenario, cells, workers, executor="process"):
    """One measured sharded run; returns wall time, digest, stats."""
    start = time.perf_counter()
    sharded = build_sharded_bench(scenario, cells).run(
        workers=workers, executor=executor)
    wall = time.perf_counter() - start
    results = sharded.results
    return {
        "cells": cells,
        "workers": workers,
        "jobs": scenario["jobs"],
        "completed": sum(r["completed"] for r in results),
        "wall_s": round(wall, 3),
        "sim_s": round(max(r["now"] for r in results), 3),
        "events_processed": sum(r["events_processed"] for r in results),
        "jobs_per_sec": round(scenario["jobs"] / wall, 3),
        "digest": sharded.digest,
        "stats": sharded.stats,
    }


def run_sharded_full():
    """Plain vs sharded on the 128-job scenario, plus the smoke rows
    and the cells=1 bit-identity check against the single-kernel digest
    of the 24-job scenario."""
    fast = run_scale_scenario(partitions=1, **SCENARIO)
    plain = run_scale_scenario(partitions=1, **SHARDED_SCENARIO)
    sequential = run_sharded(SHARDED_SCENARIO, SHARDED_CELLS, workers=1)
    parallel = run_sharded(SHARDED_SCENARIO, SHARDED_CELLS,
                           workers=SHARDED_CELLS)
    cells1 = build_sharded_bench(SCENARIO, cells=1).run(executor="inline")
    smoke_seq = run_sharded(SHARDED_SMOKE, SHARDED_SMOKE_CELLS, workers=1)
    smoke_par = run_sharded(SHARDED_SMOKE, SHARDED_SMOKE_CELLS,
                            workers=SHARDED_SMOKE_CELLS)
    return {
        "scenario": {**SHARDED_SCENARIO, "cells": SHARDED_CELLS},
        "cpus": os.cpu_count(),
        "plain": {key: plain[key] for key in
                  ("wall_s", "sim_s", "events_processed", "digest")},
        "workers_1": sequential,
        "workers_n": parallel,
        "timelines_identical": sequential["digest"] == parallel["digest"],
        # single-cell sharding is the unsharded platform, bit for bit
        "cells1_bit_identical":
            cells1.results[0]["digest"] == fast["digest"],
        "speedup_vs_plain": round(plain["wall_s"] / parallel["wall_s"], 2),
        "parallel_speedup": round(
            sequential["wall_s"] / parallel["wall_s"], 2),
        "smoke": {
            "scenario": {**SHARDED_SMOKE, "cells": SHARDED_SMOKE_CELLS},
            "workers_1": {"wall_s": smoke_seq["wall_s"],
                          "digest": smoke_seq["digest"]},
            "workers_n": {"wall_s": smoke_par["wall_s"],
                          "digest": smoke_par["digest"]},
            "timelines_identical":
                smoke_seq["digest"] == smoke_par["digest"],
        },
    }


def assert_sharded(sharded):
    for row in (sharded["workers_1"], sharded["workers_n"]):
        assert row["completed"] == row["jobs"], row
    assert sharded["timelines_identical"], (
        "worker count changed the merged timeline: "
        f"{sharded['workers_1']['digest']} != "
        f"{sharded['workers_n']['digest']}")
    assert sharded["smoke"]["timelines_identical"], sharded["smoke"]
    assert sharded["cells1_bit_identical"], (
        "a 1-cell sharded run must replay the unsharded platform "
        "bit for bit")
    return sharded


def test_sharded_gate():
    """Benchmark-suite entry: the full measurement + its invariants."""
    sharded = assert_sharded(run_sharded_full())
    print(json.dumps({k: sharded[k] for k in
                      ("speedup_vs_plain", "parallel_speedup")}, indent=2))


def main():
    sharded = assert_sharded(run_sharded_full())
    print(json.dumps(sharded, indent=2))
    write_section("sharded", sharded)
    return 0


if __name__ == "__main__":
    sys.exit(main())
