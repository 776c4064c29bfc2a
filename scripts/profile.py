"""Profile the simulator hot path under cProfile.

Runs the 6-job smoke scenario (``--full`` for the 24-job one, both
from ``BENCH_perf.json``) or one of perfbench's closed-loop shapes
(``--workload``) and prints the top functions by own time and by
cumulative time. This is the workflow that found every optimization in
the hot path: run, read the tottime column, fix the top entry, repeat.

Usage::

    PYTHONPATH=src python scripts/profile.py            # smoke scenario
    PYTHONPATH=src python scripts/profile.py --full     # 24-job scenario
    PYTHONPATH=src python scripts/profile.py --workload scale  # perfbench shape
    PYTHONPATH=src python scripts/profile.py -o out.pstats  # for snakeviz
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
# This file is named profile.py, which would shadow the stdlib profile
# module cProfile imports — drop scripts/ from the path first.
sys.path[:] = [p for p in sys.path
               if Path(p or ".").resolve() != REPO_ROOT / "scripts"]
sys.path.insert(0, str(REPO_ROOT))  # perfbench, imported read-only

import argparse  # noqa: E402
import cProfile  # noqa: E402
import json  # noqa: E402
import pstats  # noqa: E402
import time  # noqa: E402

from repro.bench import run_scale_scenario  # noqa: E402

PERFBENCH_WORKLOADS = ("steady", "scale", "partitioned")


def run_workload(name, seed):
    """One perfbench iteration (build, drive, drain), reported with
    the keys of a ``run_scale_scenario`` row."""
    from perfbench.workloads import WORKLOADS, drive, make_platform

    workload = WORKLOADS[name]
    start = time.perf_counter()
    platform = make_platform(workload, seed)
    outcome = drive(platform, workload, seed)
    wall = time.perf_counter() - start
    events = platform.kernel.events_processed
    return {"jobs": len(outcome.docs), "wall_s": round(wall, 3),
            "events_processed": events,
            "events_per_sec": round(events / wall, 1)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true",
                        help="profile the 24-job scalability scenario")
    parser.add_argument("--workload", choices=PERFBENCH_WORKLOADS,
                        help="profile one iteration of a perfbench workload "
                             "instead of the smoke scenario")
    parser.add_argument("--seed", type=int, default=2,
                        help="perfbench workload seed (default 2)")
    parser.add_argument("--lines", type=int, default=25,
                        help="rows per stats table (default 25)")
    parser.add_argument("-o", "--output", metavar="FILE",
                        help="also dump raw pstats to FILE")
    args = parser.parse_args(argv)

    committed = json.loads((REPO_ROOT / "BENCH_perf.json").read_text())
    scenario = committed["fast" if args.full else "smoke"]["scenario"]

    profiler = cProfile.Profile()
    profiler.enable()
    if args.workload:
        result = run_workload(args.workload, args.seed)
    else:
        result = run_scale_scenario(partitions=1, **scenario)
    profiler.disable()

    print(f"jobs={result['jobs']} "
          f"wall={result['wall_s']}s events={result['events_processed']} "
          f"({result['events_per_sec']}/s)\n")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs()
    for sort in ("tottime", "cumulative"):
        print(f"--- top {args.lines} by {sort} ---")
        stats.sort_stats(sort).print_stats(args.lines)
    if args.output:
        stats.dump_stats(args.output)
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
