"""Profile the simulator hot path under cProfile, or census its heap.

Runs the 6-job smoke scenario (``--full`` for the 24-job one, both
from ``BENCH_perf.json``) or one of perfbench's workloads
(``--workload``) and prints the top functions by own time and by
cumulative time. This is the workflow that found every optimization in
the hot path: run, read the tottime column, fix the top entry, repeat.

``--heap`` answers the question cProfile cannot: what is still alive
at the end of the run, and what the cycle collector paid to keep
walking it. The collector's time lands on whoever allocated last, so
a retention leak is flat in the cProfile table; here it is the top
row of the type census. No profiler runs in this mode.

``--events`` reads the same cProfile run another way: who puts the
kernel's events on its heap. Every timer is a ``Kernel.sleep``, every
process a ``Kernel.spawn`` and every bare callback entry a
``Kernel.call_later`` or ``call_soon``, so their callers, as shares of
``events_processed``, say whether a kernel-cost idea (fewer poll ticks,
fewer RPC timers) is aimed at a tenth of the events or at half.

``--rpcs`` is the companion of ``--events`` one layer up: who issues
the network's calls, as caller kind × endpoint × method with shares of
all calls made (perfbench's ``grpcnet.rpcs`` counts the ones that
finished). An RPC is cheap since it became one event; this says whose
there are. No profiler runs in this mode either: ``Network.call`` is
wrapped from here.

``--passes`` is the same question asked of the reconcilers: what
enqueued the keys their workers were handed, by reconciler kind × cause
(a watch event or NFS notification, the periodic resync, a relist at
(re)subscribe, a re-check the pass itself scheduled, a backoff requeue),
with how many adds coalesced into a key already queued and how many
became a pass. ``WorkQueue.add`` / ``add_after`` and the watch sources'
``subscribe`` / ``keys_of`` are wrapped from here; no profiler runs.

Usage::

    PYTHONPATH=src python scripts/profile.py            # smoke scenario
    PYTHONPATH=src python scripts/profile.py --full     # 24-job scenario
    PYTHONPATH=src python scripts/profile.py --workload scale  # perfbench shape
    PYTHONPATH=src python scripts/profile.py --heap --workload scale
    PYTHONPATH=src python scripts/profile.py --events --workload scale
    PYTHONPATH=src python scripts/profile.py --rpcs --workload scale
    PYTHONPATH=src python scripts/profile.py --passes --workload chaos
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
import gc  # noqa: E402
import json  # noqa: E402
import pstats  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

from repro.bench import run_scale_scenario  # noqa: E402

PERFBENCH_WORKLOADS = ("steady", "scale", "partitioned", "chaos")
# The Kernel methods that push a heap entry on a caller's behalf.
SCHEDULERS = ("sleep", "spawn", "call_later", "call_soon")
HEAP_TOP_TYPES = 15
# Reconciler-runtime functions whose frame on the stack of a
# ``WorkQueue.add`` says why the key was enqueued (innermost wins).
PASS_CAUSES = {"requeue": "backoff requeue", "_worker": "scheduled re-check",
               "_on_change": "nfs notification", "resync_once": "resync"}


def run_workload(name, seed):
    """One perfbench iteration (build, drive, drain), reported with
    the keys of a ``run_scale_scenario`` row; the platform comes back
    too, so that a heap census sees it alive."""
    from perfbench.workloads import WORKLOADS, drive, make_platform

    workload = WORKLOADS[name]
    start = time.perf_counter()
    platform = make_platform(workload, seed)
    outcome = drive(platform, workload, seed)
    wall = time.perf_counter() - start
    events = platform.kernel.events_processed
    return {"jobs": len(outcome.docs), "wall_s": round(wall, 3),
            "events_processed": events,
            "events_per_sec": round(events / wall, 1)}, platform


def print_result(result):
    print(f"jobs={result['jobs']} "
          f"wall={result['wall_s']}s events={result['events_processed']} "
          f"({result['events_per_sec']}/s)\n")


class CollectorClock:
    """Passes, seconds and objects freed per generation of the cycle
    collector, from ``gc.callbacks``."""

    def __init__(self):
        self.passes = Counter()
        self.seconds = Counter()
        self.collected = Counter()
        self._started = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._started = time.perf_counter()
        else:
            generation = info["generation"]
            self.passes[generation] += 1
            self.seconds[generation] += time.perf_counter() - self._started
            self.collected[generation] += info["collected"]

    def report(self):
        print("--- cycle collector during the run (gc.callbacks) ---")
        print("generation  passes  seconds  collected")
        for generation in range(3):
            print(f"{generation:>10}  {self.passes[generation]:>6}  "
                  f"{self.seconds[generation]:>7.3f}  "
                  f"{self.collected[generation]:>9}")
        print(f"{'total':>10}  {sum(self.passes.values()):>6}  "
              f"{sum(self.seconds.values()):>7.3f}  "
              f"{sum(self.collected.values()):>9}\n")


def heap_census(name, seed):
    """Run one workload with the collector clocked, then count what is
    alive while the platform still is."""
    clock = CollectorClock()
    gc.callbacks.append(clock)
    try:
        # The platform is held, not used: the census counts what it
        # keeps alive.
        result, _platform = run_workload(name, seed)
    finally:
        gc.callbacks.remove(clock)
    # Read before the census allocates its own list of everything.
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print_result(result)
    clock.report()
    unreachable = gc.collect()
    live = gc.get_objects()
    census = Counter(type(obj).__qualname__ for obj in live)
    print(f"--- {HEAP_TOP_TYPES} most numerous live GC-tracked types "
          f"({len(live)} objects; the final collect freed {unreachable}) ---")
    for type_name, count in census.most_common(HEAP_TOP_TYPES):
        print(f"{count:>9}  {type_name}")
    print(f"\nru_maxrss: {peak:.1f} MB")


def rpc_census(run, lines):
    """Count every ``Network.call`` of ``run()`` by who made it, to
    whom and for what, ids and ordinals collapsed (``guardian-job-*-uid-*``
    is every Guardian's etcd client, ``etcd-*`` every member)."""
    from repro.grpcnet.network import Network

    def kind(name):
        return re.sub(r"\d+", "*", str(name))

    calls = Counter()
    plain_call = Network.call

    def counted_call(self, address, method, request, deadline=None,
                     caller="client"):
        calls[kind(caller), kind(address), method] += 1
        return plain_call(self, address, method, request, deadline=deadline,
                          caller=caller)

    Network.call = counted_call
    try:
        result = run()
    finally:
        Network.call = plain_call
    print_result(result)
    total = sum(calls.values())
    by_caller = Counter()
    for (caller, _address, _method), count in calls.items():
        by_caller[caller] += count

    def share(count):
        return f"{100.0 * count / total:5.1f} %"

    print(f"--- who issues the network's calls ({total} made) ---")
    print("    calls    share  caller kind")
    for caller, count in by_caller.most_common():
        print(f"{count:>9}  {share(count)}  {caller}")
    print(f"\n    calls    share  caller kind -> endpoint . method "
          f"(top {lines})")
    for (caller, address, method), count in calls.most_common(lines):
        print(f"{count:>9}  {share(count)}  {caller} -> {address} . {method}")


def pass_census(run):
    """Count every ``WorkQueue.add`` of ``run()`` by the queue's kind
    and by what enqueued the key. The cause is read off the call stack
    (a delayed add remembers the stack that armed its timer); a pump's
    own adds are a watch event after ``keys_of`` and a relist after
    ``subscribe``."""
    from repro.sim.reconciler import Reconciler, WatchSource, WorkQueue

    adds = Counter()  # (kind, cause) -> adds
    coalesced = Counter()  # (kind, cause) -> adds that found the key queued
    armed = {}  # (queue id, key) -> cause of the pending delayed add
    in_event = set()  # pump frames that have an event in hand

    def pump_frame():
        frame = sys._getframe(2)
        while frame is not None and frame.f_code.co_name != "_pump":
            frame = frame.f_back
        return frame

    def cause_of(queue, key, frame):
        while frame is not None:
            name = frame.f_code.co_name
            if name in PASS_CAUSES:
                return PASS_CAUSES[name]
            if name == "_fire_timer":
                return armed.pop((id(queue), key), "timer")
            if name == "_pump":
                return ("watch event" if frame in in_event
                        else "relist at (re)subscribe")
            if name in ("start", "add_static_key") and isinstance(
                    frame.f_locals.get("self"), Reconciler):
                return "start"
            frame = frame.f_back
        return "other"

    plain = (WorkQueue.add, WorkQueue.add_after, WatchSource.subscribe,
             WatchSource.keys_of)

    def counted_add(self, key):
        if not self.closed:
            cause = cause_of(self, key, sys._getframe(1))
            adds[self.kind, cause] += 1
            if key in self._queued:
                coalesced[self.kind, cause] += 1
        return plain[0](self, key)

    def counted_add_after(self, key, delay):
        before = self._timers.get(key)
        plain[1](self, key, delay)
        if self._timers.get(key) != before:  # this call armed the timer
            armed[id(self), key] = cause_of(self, key, sys._getframe(1))

    def counted_subscribe(self):
        in_event.discard(pump_frame())
        return plain[2](self)

    def counted_keys_of(self, event):
        in_event.add(pump_frame())
        return plain[3](self, event)

    WorkQueue.add, WorkQueue.add_after = counted_add, counted_add_after
    WatchSource.subscribe = counted_subscribe
    WatchSource.keys_of = counted_keys_of
    try:
        result = run()
    finally:
        (WorkQueue.add, WorkQueue.add_after, WatchSource.subscribe,
         WatchSource.keys_of) = plain
    print_result(result)
    total = sum(adds.values())
    print(f"--- what enqueues the reconcilers' keys ({total} adds, "
          f"{total - sum(coalesced.values())} dispatched) ---")
    print("     adds  coalesced dispatched  kind          cause")

    def row(count, merged, kind, cause):
        print(f"{count:>9}  {merged:>9}  {count - merged:>9}  "
              f"{kind:12}  {cause}".rstrip())

    by_kind = Counter()
    for (kind, _cause), count in adds.items():
        by_kind[kind] += count
    for kind, kind_adds in by_kind.most_common():
        row(kind_adds, sum(n for (k, _c), n in coalesced.items() if k == kind),
            kind, "")
        causes = Counter({cause: n for (k, cause), n in adds.items()
                          if k == kind})
        for cause, count in causes.most_common():
            row(count, coalesced[kind, cause], "", cause)


def module_name(filename):
    """``repro.grpcnet.network`` for ``…/src/repro/grpcnet/network.py``,
    whichever checkout ``PYTHONPATH`` points at."""
    path = Path(filename).with_suffix("")
    for package in ("repro", "perfbench"):
        if package in path.parts[:-1]:
            return ".".join(path.parts[path.parts.index(package):])
    return path.name


def event_census(stats, events_processed, lines):
    """Callers of ``Kernel.sleep``, ``spawn``, ``call_later`` and
    ``call_soon`` from a cProfile run, by module and by function, as
    shares of ``events_processed``. The rest of the events are the
    zero-delay callbacks those timers and processes trigger (event
    callbacks, process resumptions)."""
    kernel_py = str(Path("repro", "sim", "kernel.py"))
    by_function = Counter()
    for (filename, _line, name), entry in stats.stats.items():
        if name in SCHEDULERS and filename.endswith(kernel_py):
            for (caller_file, caller_line, caller), counts in entry[4].items():
                module = module_name(caller_file)
                if name == "call_soon" and module.startswith("repro.sim."):
                    # ``_schedule_now`` is the same function: the hops
                    # of events and processes, not somebody's entry.
                    continue
                by_function[module, f"{caller}:{caller_line}", name] += counts[0]
    totals = Counter()
    by_module = Counter()
    for (module, _function, via), calls in by_function.items():
        totals[via] += calls
        by_module[module, via] += calls

    def share(calls):
        return f"{100.0 * calls / events_processed:5.1f} %"

    print("--- who schedules the kernel's events "
          f"({events_processed} processed) ---")
    for via in SCHEDULERS:
        print(f"Kernel.{via}: {totals[via]} calls, {share(totals[via])} "
              "of events_processed")
    print("\n    calls    share  via         module")
    for (module, via), calls in by_module.most_common():
        print(f"{calls:>9}  {share(calls)}  {via:10}  {module}")
    print(f"\n    calls    share  via         function:line (top {lines})")
    for (module, function, via), calls in by_function.most_common(lines):
        print(f"{calls:>9}  {share(calls)}  {via:10}  {module}.{function}")


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
    parser.add_argument("--heap", action="store_true",
                        help="instead of cProfile: collector passes and "
                             "seconds per generation, the most numerous "
                             "live types and ru_maxrss (needs --workload)")
    parser.add_argument("--events", action="store_true",
                        help="instead of the function tables: callers of "
                             "Kernel.sleep, spawn, call_later and call_soon "
                             "by module and function, as shares of "
                             "events_processed")
    parser.add_argument("--rpcs", action="store_true",
                        help="instead of cProfile: who issues the network's "
                             "calls, as caller kind x endpoint x method with "
                             "shares of all calls made")
    parser.add_argument("--passes", action="store_true",
                        help="instead of cProfile: what enqueues the "
                             "reconcilers' keys, as reconciler kind x cause "
                             "with coalesced adds and passes")
    args = parser.parse_args(argv)
    if args.heap:
        if not args.workload:
            # Only the perfbench path hands the platform back, and a
            # census after it was dropped counts nothing of interest.
            parser.error("--heap needs --workload")
        heap_census(args.workload, args.seed)
        return 0

    committed = json.loads((REPO_ROOT / "BENCH_perf.json").read_text())
    scenario = committed["fast" if args.full else "smoke"]["scenario"]

    def run():
        if args.workload:
            return run_workload(args.workload, args.seed)[0]
        return run_scale_scenario(partitions=1, **scenario)

    if args.rpcs:
        rpc_census(run, args.lines)
        return 0
    if args.passes:
        pass_census(run)
        return 0

    profiler = cProfile.Profile()
    profiler.enable()
    result = run()
    profiler.disable()

    print_result(result)
    stats = pstats.Stats(profiler, stream=sys.stdout)
    if args.events:
        event_census(stats, result["events_processed"], args.lines)
    else:
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
