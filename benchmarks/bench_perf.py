"""Sharded-kernel measurement (``repro.core.sharded``).

ROADMAP item 5's configuration: the 128-job workload on a single
kernel against the same workload partitioned into 2 platform cells —
identical aggregate GPU capacity — on 2 multiprocessing workers, as
alternating pairs of wall clock (the side that goes first flips each
pair, so drift of the box lands on both). Every run is listed; medians,
quartiles and wins out of the pairs are recorded and never compared to
a limit here. Three things are asserted, all exact: the merged timeline
is identical for every worker count, every run completes 128 / 128,
and a 1-cell sharded run replays the unsharded 24-job platform bit for
bit.

Writes the ``sharded`` section of ``BENCH_perf.json``::

    PYTHONPATH=src python benchmarks/bench_perf.py [--pairs 10]
"""

import argparse
import json
import os
import statistics
import sys
import time

from conftest import write_section

from repro.bench import build_sharded_bench, run_scale_scenario

SCENARIO = {"jobs": 24, "seed": 2, "steps": 60, "gpus_per_node": 4,
            "gpu_nodes": 8}
SHARDED_SCENARIO = {"jobs": 128, "seed": 2, "steps": 60,
                    "gpus_per_node": 4, "gpu_nodes": 8}
SHARDED_CELLS = 2
SHARDED_SMOKE = {"jobs": 6, "seed": 2, "steps": 30, "gpus_per_node": 4,
                 "gpu_nodes": 4}
PAIRS = 10


def run_plain(scenario):
    """One measured single-kernel run."""
    start = time.perf_counter()
    plain = run_scale_scenario(partitions=1, **scenario)
    wall = time.perf_counter() - start
    return {
        "jobs": scenario["jobs"],
        "completed": plain["completed"],
        "wall_s": round(wall, 3),
        "sim_s": plain["sim_s"],
        "events_processed": plain["events_processed"],
        "digest": plain["digest"],
    }


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
        "digest": sharded.digest,
        "stats": sharded.stats,
    }


def summary(walls):
    low, median, high = (statistics.quantiles(walls, n=4, method="inclusive")
                         if len(walls) > 1 else walls * 3)
    return {"runs": walls, "median": round(median, 3),
            "quartiles": [round(low, 3), round(high, 3)]}


def run_sharded_full(pairs=PAIRS):
    """``pairs`` alternating plain / sharded pairs of the 128-job
    scenario, one 1-worker run of the same cells, the smoke rows, and
    the cells=1 bit-identity check against the single-kernel digest of
    the 24-job scenario."""
    plain_runs, sharded_runs = [], []
    sides = [(plain_runs, lambda: run_plain(SHARDED_SCENARIO)),
             (sharded_runs, lambda: run_sharded(
                 SHARDED_SCENARIO, SHARDED_CELLS, workers=SHARDED_CELLS))]
    for pair in range(pairs):
        for runs, measure in (sides if pair % 2 == 0 else sides[::-1]):
            runs.append(measure())
    sequential = run_sharded(SHARDED_SCENARIO, SHARDED_CELLS, workers=1)
    fast = run_scale_scenario(partitions=1, **SCENARIO)
    cells1 = build_sharded_bench(SCENARIO, cells=1).run(executor="inline")
    smoke_seq = run_sharded(SHARDED_SMOKE, SHARDED_CELLS, workers=1)
    smoke_par = run_sharded(SHARDED_SMOKE, SHARDED_CELLS,
                            workers=SHARDED_CELLS)
    plain_walls = [run["wall_s"] for run in plain_runs]
    sharded_walls = [run["wall_s"] for run in sharded_runs]
    plain, parallel = summary(plain_walls), summary(sharded_walls)
    return {
        "scenario": {**SHARDED_SCENARIO, "cells": SHARDED_CELLS,
                     "workers": SHARDED_CELLS},
        "cpus": os.cpu_count(),
        "pairs": pairs,
        "plain": {**plain, **{key: plain_runs[0][key] for key in
                              ("sim_s", "events_processed", "digest")}},
        "workers_n": {**parallel, **{key: sharded_runs[0][key] for key in
                                     ("sim_s", "events_processed", "digest",
                                      "stats")}},
        "workers_1": sequential,
        "sharded_faster_in": sum(
            s < p for p, s in zip(plain_walls, sharded_walls)),
        "speedup_vs_plain": round(plain["median"] / parallel["median"], 2),
        "all_completed": all(run["completed"] == run["jobs"] for run in
                             plain_runs + sharded_runs + [sequential]),
        "timelines_identical":
            {run["digest"] for run in sharded_runs} == {sequential["digest"]}
            and len({run["digest"] for run in plain_runs}) == 1,
        # single-cell sharding is the unsharded platform, bit for bit
        "cells1_bit_identical":
            cells1.results[0]["digest"] == fast["digest"],
        "smoke": {
            "scenario": {**SHARDED_SMOKE, "cells": SHARDED_CELLS},
            "workers_1": {"wall_s": smoke_seq["wall_s"],
                          "digest": smoke_seq["digest"]},
            "workers_n": {"wall_s": smoke_par["wall_s"],
                          "digest": smoke_par["digest"]},
            "timelines_identical":
                smoke_seq["digest"] == smoke_par["digest"],
        },
    }


def assert_sharded(sharded):
    assert sharded["all_completed"], "a run lost a job"
    assert sharded["timelines_identical"], (
        "worker count (or a rerun) changed a timeline: "
        f"1 worker {sharded['workers_1']['digest']}, "
        f"{SHARDED_CELLS} workers {sharded['workers_n']['digest']}")
    assert sharded["smoke"]["timelines_identical"], sharded["smoke"]
    assert sharded["cells1_bit_identical"], (
        "a 1-cell sharded run must replay the unsharded platform "
        "bit for bit")
    return sharded


def test_sharded_gate():
    """Benchmark-suite entry: one pair + the invariants."""
    sharded = assert_sharded(run_sharded_full(pairs=1))
    print(json.dumps({"speedup_vs_plain": sharded["speedup_vs_plain"]}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=PAIRS)
    args = parser.parse_args(argv)
    sharded = assert_sharded(run_sharded_full(args.pairs))
    print(json.dumps(sharded, indent=2))
    write_section("sharded", sharded)
    return 0


if __name__ == "__main__":
    sys.exit(main())
