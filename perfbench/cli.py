"""Command line: one contract run, the full report, or a comparison.

    python3 perfbench/run.py --workload steady --seed 2 --seconds 20 --trace 0
    python3 perfbench/run.py [--runs 3] [--seed 2] [--out FILE]
    python3 perfbench/run.py --compare A.json B.json
"""

import argparse
import gc
import json
import os
import platform as host
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = Path(__file__).resolve().parent / "BASELINE.json"
DEFAULT_OUT = Path(__file__).resolve().parent / "out" / "latest.json"
SETUP_SAMPLES = 5
# The committed 24-job digest (BENCH_perf.json ``fast.digest``): steady
# at seed 2 must reproduce it.
PINNED = {("steady", 24, 2):
          "76872a66093ceba96f3106293475e62e6c0d2f0f2cb3713730c7bda76de3e6dd"}


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__,
                                     formatter_class=argparse
                                     .RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run this one workload and print "
                        "one result object as the last line")
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one run measures (default: "
                        "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="6-job shape of every workload, one iteration")
    parser.add_argument("--runs", type=int, default=3,
                        help="full report: untraced runs per workload")
    parser.add_argument("--out", type=Path, default=None,
                        help="full report: where the numbers are written; "
                        "one run: where spans and samples are written")
    parser.add_argument("--compare", nargs=2, type=Path, metavar="FILE")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.compare:
        from .compare import compare_files
        return compare_files(*args.compare)
    started = time.process_time()
    import repro.core  # noqa: F401  (timed: part of setup_s)
    import_s = time.process_time() - started
    from .spec import RUN_SECONDS
    if args.seconds is None:
        args.seconds = RUN_SECONDS
    if args.workload:
        return run_one(args, import_s)
    return run_all(args)


# ----------------------------------------------------------------------
# One run of one workload (what the driver calls)
# ----------------------------------------------------------------------

def fill(budget, unit):
    """Call ``unit()``, which returns the host seconds it took, until
    ``budget`` seconds are spent: always once, and never starting a call
    that would not fit."""
    costs = []
    while True:
        costs.append(unit())
        if sum(costs) + statistics.median(costs) > budget:
            return


def measure_workload(workload, seed, seconds, trace, import_s=0.0):
    """Measure for ``seconds``; returns ``(metrics, detail)``: the
    end-to-end metrics of the untraced iterations and, with ``trace``,
    the per-layer metrics of the traced ones. A traced run alternates
    untraced and traced iterations, so that ``trace.overhead_ratio``
    compares neighbours in time."""
    import repro

    from .measure import run_iteration, traced_metrics
    from .reference import Reference
    from .trace import Trace
    from .workloads import make_platform

    source_root = Path(repro.__file__).resolve().parent
    iterations, traced = [], []
    reference = Reference()

    def unit():
        started = time.perf_counter()
        iterations.append(run_iteration(workload, seed))
        iterations[-1].ref_s = reference.since_last()
        if trace:
            traced.append(run_iteration(workload, seed, Trace(source_root)))
            traced[-1].ref_s = reference.since_last()
        return time.perf_counter() - started

    fill(seconds, unit)
    everything = iterations + traced

    setups = [i.setup_s for i in everything]
    # Extra set-ups only where setup_s is reported: the untraced run.
    while not trace and len(setups) < SETUP_SAMPLES:
        gc.collect()
        started = time.process_time()
        make_platform(workload, seed)
        setups.append(time.process_time() - started)

    first = everything[0]
    problems = list(first.problems)
    for other in everything[1:]:
        if other.digest != first.digest:
            problems.append("digest differs between iterations of one seed")
        problems.extend(p for p in other.problems if p not in problems)
    pinned = PINNED.get((workload.name, workload.jobs, seed))
    if pinned and first.digest != pinned:
        problems.append(f"steady digest at seed {seed} is not the committed "
                        f"{pinned[:8]}")

    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "cpu_ref": statistics.median(i.cpu_s / i.ref_s for i in iterations),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **first.sim,
    }
    if trace:
        rows = [dict(t.counts, **traced_metrics(t, u))
                for u, t in zip(iterations, traced)]
        metrics.update((name, statistics.median(row[name] for row in rows))
                       for name in rows[0])
    detail = {
        "workload": workload.name, "seed": seed, "trace": int(trace),
        "digest": first.digest,
        "iterations": len(everything),
        "cpu_s": [i.cpu_s for i in everything],
        "wall_s": [i.wall_s for i in everything],
        "ref_s": [i.ref_s for i in everything],
        "events": first.events,
        "samples": first.samples,
        "attempted": sum(i.attempted for i in everything),
        "failed": sum(i.failed for i in everything),
        "skipped_faults": first.skipped_faults,
        "problems": problems,
    }
    if trace:
        last = traced[-1]
        detail["probes"] = {name: {"calls": c, "self_s": s / 1e9,
                                   "cumulative_s": t / 1e9}
                            for name, (c, s, t) in last.probes.items()}
        detail["stack_samples"] = last.stack_samples
        detail["host_shares"] = last.shares
    return metrics, detail


def timeline_changed(detail):
    """Against the digests committed in BASELINE.json; None = no baseline
    for this workload and seed."""
    try:
        baseline = json.loads(BASELINE.read_text())
        known = baseline["workloads"][detail["workload"]]["digests"]
    except (OSError, KeyError, ValueError):
        return None
    digest = known.get(str(detail["seed"]))
    return None if digest is None else digest != detail["digest"]


def metric_line(name, value, unit, n):
    """One printed row; ``n`` is the sample count behind a percentile."""
    from .measure import WITHHELD

    shown = "withheld" if n is not None and value == WITHHELD \
        else f"{value:.6g}"
    return f"{name:44s} {shown:>14s} {unit:6s}" + (f" n={n}" if n is not None
                                                  else "")


def run_one(args, import_s):
    from .spec import END_TO_END, PER_LAYER, UNITS
    from .workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.quick:
        workload, args.seconds = workload.quick(), 0.0
    metrics, detail = measure_workload(workload, args.seed, args.seconds,
                                       bool(args.trace), import_s)
    names = [row[0] for row in (PER_LAYER if args.trace else END_TO_END)]
    for name in names:
        print(metric_line(name, metrics[name], UNITS[name],
                          detail["samples"].get(name)))
    changed = None if args.quick else timeline_changed(detail)
    print(f"digest {detail['digest']}"
          + ("" if changed is None else
             f" timeline_changed: {str(changed).lower()}"))
    for fault in detail["skipped_faults"]:
        print(f"fault skipped, no target: {fault}")
    for problem in detail["problems"]:
        print(f"CHECK FAILED: {problem}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(detail, indent=1) + "\n")
    print("#detail " + json.dumps(detail))
    print(json.dumps({
        "correct": not detail["problems"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {name: {"value": metrics[name], "unit": UNITS[name]}
                    for name in names},
    }))
    return 0 if not detail["problems"] else 1


# ----------------------------------------------------------------------
# The full report: every workload, both clocks
# ----------------------------------------------------------------------

def child_run(workload, seed, seconds, trace, quick):
    command = [sys.executable, str(Path(__file__).with_name("run.py")),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        command.append("--quick")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload}: run ended with code {done.returncode} "
                         "and no result")
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2][len("#detail "):])
    return result


def run_all(args):
    from .spec import END_TO_END, PER_LAYER, benchmark_json
    from .stats import quartiles
    from .workloads import WORKLOADS

    report = {"benchmark": benchmark_json(), "seed": args.seed,
              "seconds": args.seconds, "quick": args.quick,
              "machine": {"nproc": os.cpu_count(),
                          "python": host.python_version(),
                          "platform": host.platform()},
              "workloads": {}}
    ok = True
    for name, workload in WORKLOADS.items():
        runs = [child_run(name, args.seed, args.seconds, 0, args.quick)
                for _ in range(args.runs)]
        traced = child_run(name, args.seed, args.seconds, 1, args.quick)
        digests = {r["detail"]["digest"] for r in runs + [traced]}
        problems = [p for r in runs + [traced]
                    for p in r["detail"]["problems"]]
        if len(digests) > 1:
            problems.append("digest differs between runs of one seed")
        ok = ok and not problems
        shape = workload.quick() if args.quick else workload
        entry = {"why": workload.why, "params": shape.params(),
                 "digests": {str(args.seed): runs[0]["detail"]["digest"]},
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "problems": problems,
                 "skipped_faults": runs[0]["detail"]["skipped_faults"],
                 "end_to_end": {}, "per_layer": {},
                 "samples": dict(runs[0]["detail"]["samples"],
                                 **traced["detail"]["samples"])}
        print(f"\n== {name}: {workload.why}")
        print(f"   jobs_failed_ratio {entry['failed']}/{entry['attempted']}"
              f"  digest {runs[0]['detail']['digest'][:16]}"
              f"  iterations/run {runs[0]['detail']['iterations']}")
        for metric, unit, clock, bound in END_TO_END:
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, q2, q3 = quartiles(values)
            entry["end_to_end"][metric] = {
                "median": q2, "q1": q1, "q3": q3, "n": len(values),
                "values": values, "unit": unit, "clock": clock,
                "bound": bound}
            print(f"   {metric:28s} {q2:12.6g} {unit:3s} "
                  f"[{q1:.6g} .. {q3:.6g}] n={len(values)} {clock} clock")
        for metric, unit, _better in PER_LAYER:
            value = traced["metrics"][metric]["value"]
            entry["per_layer"][metric] = value
            print("   " + metric_line(metric, value, unit,
                                      entry["samples"].get(metric)))
        for problem in problems:
            print(f"   CHECK FAILED: {problem}")
        report["workloads"][name] = entry
    out = args.out or DEFAULT_OUT
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nwrote {out}")
    return 0 if ok else 1
