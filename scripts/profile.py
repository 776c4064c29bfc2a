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
kernel's events in its queues. A ``Timer`` is a ``Kernel.sleep``, a
spawned process a ``Kernel.spawn``, and every other entry a
``Kernel.call_later`` or ``call_soon`` — among them
the entries that are their own timer: a poll tick
(``repro.sim.periodic``), an RPC's deadline (``repro.grpcnet.network``)
and a Raft replicator's idle wait (``repro.raftkv.node``), all
``call_later``. So their callers, as shares of ``events_processed``,
say whether a kernel-cost idea (fewer poll ticks, fewer RPC deadlines)
is aimed at a tenth of the events or at half. Each row also splits its entries between the heap
(due later) and the ready queue (due now): the kernel's ready queue is
swapped for one that counts who appends to it. An entry that ends a
wait (a timer, a tick, a deadline, an idle wait) and fires with nothing
else due runs its hop in its own entry; the hops saved that way get a
row of their own, as a share of
``events_processed``, so the rows of a run still add up against the
count a hop per timer would have reached.

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

``--lists`` asks it of the cluster's API server: which functions call
``ApiServer.list`` and through which pod index (``owner``, ``node``,
``unscheduled``, or ``none``: a full list of the kind, narrowed by
selector at most), with shares of all lists. It sizes the
terms a watch could replace. ``ApiServer.list`` is wrapped from here;
no profiler runs.

``--wakes`` asks who the kernel resumes: every process resume, by the
generator function it resumes in (the innermost of a ``yield from``
chain, so a Guardian's teardown wait is ``Guardian._await_cluster``,
not ``Guardian.run``) and by process name with ids collapsed, as shares
of all resumes. A wait woken by events it does not wait on shows up
here as a large row. A wake that needs no process is no resume: a poll
tick runs its pass in the tick's own hop, and a pass (or an RPC
handler) that never suspends never becomes a process, so only passes
that suspended show up, under the loop's name. ``Process._resume`` and ``Process._on_wait_done``
are wrapped from here; no profiler runs.

``--floor`` asks what the platform costs with nothing to do: it builds
a workload's platform (``--workload``, default ``steady``), lets it
settle for 30 simulated seconds without submitting anything, then
counts the kernel's events over 300 more and reports them per idle
simulated second. The idle window runs under cProfile and is
split by source the way ``--events`` splits a whole run, each row with
its entries per idle second beside its share.

Usage::

    PYTHONPATH=src python scripts/profile.py            # smoke scenario
    PYTHONPATH=src python scripts/profile.py --full     # 24-job scenario
    PYTHONPATH=src python scripts/profile.py --workload scale  # perfbench shape
    PYTHONPATH=src python scripts/profile.py --heap --workload scale
    PYTHONPATH=src python scripts/profile.py --events --workload scale
    PYTHONPATH=src python scripts/profile.py --rpcs --workload scale
    PYTHONPATH=src python scripts/profile.py --passes --workload chaos
    PYTHONPATH=src python scripts/profile.py --lists --workload scale
    PYTHONPATH=src python scripts/profile.py --wakes --workload scale
    PYTHONPATH=src python scripts/profile.py --floor --workload chaos
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
from collections import Counter, deque  # noqa: E402

import repro.sim.kernel as kernel_module  # noqa: E402
from repro.bench import run_scale_scenario  # noqa: E402

PERFBENCH_WORKLOADS = ("steady", "scale", "partitioned", "chaos")
# The Kernel methods that queue an entry on a caller's behalf.
SCHEDULERS = ("sleep", "spawn", "call_later", "call_soon")
# Of those, the ones whose entry goes to the heap or to the ready
# queue depending on whether it is due now; ``spawn`` and
# ``call_soon`` always go to the ready queue.
ROUTED = {getattr(kernel_module.Kernel, name).__code__: name
          for name in ("sleep", "call_later")}
HEAP_TOP_TYPES = 15
# --floor: simulated seconds a platform settles (its first election and
# start-up writes), then the idle window whose events are counted.
FLOOR_SETTLE = 30.0
FLOOR_IDLE = 300.0
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
    platform = make_platform(workload, seed)
    outcome = drive(platform, workload, seed)
    return {"jobs": len(outcome.docs),
            "events_processed": platform.kernel.events_processed,
            "dispatches_inlined": platform.kernel.dispatches_inlined}, platform


def print_result(result, wall):
    """The run's size and its host wall seconds."""
    events = result["events_processed"]
    print(f"jobs={result['jobs']} wall={wall:.3f}s events={events} "
          f"({events / wall:.1f}/s)\n")


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
    start = time.perf_counter()
    try:
        # The platform is held, not used: the census counts what it
        # keeps alive.
        result, _platform = run_workload(name, seed)
    finally:
        gc.callbacks.remove(clock)
    wall = time.perf_counter() - start
    # Read before the census allocates its own list of everything.
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print_result(result, wall)
    clock.report()
    unreachable = gc.collect()
    live = gc.get_objects()
    census = Counter(type(obj).__qualname__ for obj in live)
    print(f"--- {HEAP_TOP_TYPES} most numerous live GC-tracked types "
          f"({len(live)} objects; the final collect freed {unreachable}) ---")
    for type_name, count in census.most_common(HEAP_TOP_TYPES):
        print(f"{count:>9}  {type_name}")
    print(f"\nru_maxrss: {peak:.1f} MB")


def floor_census(name, seed, lines):
    """Build workload ``name``'s platform, let it settle for
    ``FLOOR_SETTLE`` simulated seconds, then profile ``FLOOR_IDLE``
    seconds in which nothing is submitted and split their events by
    source."""
    from perfbench.workloads import WORKLOADS, make_platform

    # Kernel.__init__ reads the name when it builds its ready queue.
    kernel_module.deque = ReadyCensus
    platform = make_platform(WORKLOADS[name], seed)
    platform.run_for(FLOOR_SETTLE)
    kernel = platform.kernel
    events, inlined = kernel.events_processed, kernel.dispatches_inlined
    ReadyCensus.appended.clear()
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    platform.run_for(FLOOR_IDLE)
    profiler.disable()
    wall = time.perf_counter() - start
    events = kernel.events_processed - events
    inlined = kernel.dispatches_inlined - inlined
    print(f"workload={name} seed={seed} settle={FLOOR_SETTLE:g}s "
          f"idle={FLOOR_IDLE:g}s wall={wall:.3f}s")
    print(f"floor: {events} events over {FLOOR_IDLE:g} idle simulated s = "
          f"{events / FLOOR_IDLE:.1f} events/s ({inlined / FLOOR_IDLE:.1f} "
          "timer hops/s run inline besides)\n")
    event_census(pstats.Stats(profiler), events, inlined,
                 ReadyCensus.appended, lines, seconds=FLOOR_IDLE)


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
        result, wall = run()
    finally:
        Network.call = plain_call
    print_result(result, wall)
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
        result, wall = run()
    finally:
        (WorkQueue.add, WorkQueue.add_after, WatchSource.subscribe,
         WatchSource.keys_of) = plain
    print_result(result, wall)
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


def list_census(run, lines):
    """Count every ``ApiServer.list`` of ``run()`` by its calling
    function and by the pod index it is served from."""
    from repro.cluster.apiserver import ApiServer

    calls = Counter()  # (caller, index) -> lists
    plain_list = ApiServer.list

    def counted_list(self, kind, selector=None, owner=None, node_name=None,
                     unscheduled=False):
        code = sys._getframe(1).f_code
        caller = f"{module_name(code.co_filename)}.{code.co_qualname}"
        index = "none"
        if kind == "Pod":  # list()'s own precedence among the indexes
            if unscheduled:
                index = "unscheduled"
            elif node_name is not None:
                index = "node"
            elif owner is not None:
                index = "owner"
        calls[caller, index] += 1
        return plain_list(self, kind, selector=selector, owner=owner,
                          node_name=node_name, unscheduled=unscheduled)

    ApiServer.list = counted_list
    try:
        result, wall = run()
    finally:
        ApiServer.list = plain_list
    print_result(result, wall)
    total = sum(calls.values())
    by_caller = Counter()
    by_index = Counter()
    for (caller, index), count in calls.items():
        by_caller[caller] += count
        by_index[index] += count

    def share(count):
        return f"{100.0 * count / total:5.1f} %"

    print(f"--- who lists the API server's resources ({total} lists) ---")
    print("    lists    share  index")
    for index, count in by_index.most_common():
        print(f"{count:>9}  {share(count)}  {index}")
    print(f"\n    lists    share  caller (top {lines})")
    for caller, count in by_caller.most_common(lines):
        print(f"{count:>9}  {share(count)}  {caller}")
    print(f"\n    lists    share  caller . index (top {lines})")
    for (caller, index), count in calls.most_common(lines):
        print(f"{count:>9}  {share(count)}  {caller} . {index}")


def wake_census(run, lines):
    """Count every process resume of ``run()`` by the generator function
    it resumes in and by process name, ids collapsed."""
    from repro.sim.events import FAILED, PENDING
    from repro.sim.process import Process

    resumes = Counter()  # (function, process) -> resumes
    plain_resume = Process._resume
    plain_wake = Process._on_wait_done

    def count(process):
        if process.state is PENDING:  # else the step returns at once
            generator = process._generator
            inner = generator.gi_yieldfrom
            while inner is not None and hasattr(inner, "gi_code"):
                generator, inner = inner, inner.gi_yieldfrom
            code = generator.gi_code
            function = f"{module_name(code.co_filename)}.{code.co_qualname}"
            resumes[function, re.sub(r"\d+", "*", process.name)] += 1

    def counted_resume(self, value, throw=None):
        count(self)
        return plain_resume(self, value, throw)

    def counted_wake(self, event):
        if event.state is not FAILED:  # a failed wait goes via _resume
            count(self)
        return plain_wake(self, event)

    Process._resume = counted_resume
    Process._on_wait_done = counted_wake
    try:
        result, wall = run()
    finally:
        Process._resume = plain_resume
        Process._on_wait_done = plain_wake
    print_result(result, wall)
    total = sum(resumes.values())
    by_function = Counter()
    for (function, _process), count in resumes.items():
        by_function[function] += count

    def share(count):
        return f"{100.0 * count / total:5.1f} %"

    print(f"--- who the kernel resumes ({total} resumes) ---")
    print(f"  resumes    share  generator function (top {lines})")
    for function, count in by_function.most_common(lines):
        print(f"{count:>9}  {share(count)}  {function}")
    print(f"\n  resumes    share  generator function [process] (top {lines})")
    for (function, process), count in resumes.most_common(lines):
        print(f"{count:>9}  {share(count)}  {function} [{process}]")


def module_name(filename):
    """``repro.grpcnet.network`` for ``…/src/repro/grpcnet/network.py``,
    whichever checkout ``PYTHONPATH`` points at."""
    path = Path(filename).with_suffix("")
    for package in ("repro", "perfbench"):
        if package in path.parts[:-1]:
            return ".".join(path.parts[path.parts.index(package):])
    return path.name


class ReadyCensus(deque):
    """The kernel's ready queue, counting the entries that ``ROUTED``
    schedulers put on it, by scheduler and by the scheduler's caller
    (keyed like cProfile's callers: file, first line, name)."""

    appended = Counter()

    def append(self, callback):
        frame = sys._getframe(1)
        via = ROUTED.get(frame.f_code)
        if via is not None:
            caller = frame.f_back.f_code
            self.appended[caller.co_filename, caller.co_firstlineno,
                          caller.co_name, via] += 1
        deque.append(self, callback)


def event_census(stats, events_processed, inlined, ready, lines,
                 seconds=None):
    """Callers of the ``SCHEDULERS`` from a cProfile run, by module and
    by function, as shares of ``events_processed``, each split into
    heap and ready-queue entries (``ready`` is ``ReadyCensus.appended``).
    The rest of the events are the zero-delay callbacks those entries
    and processes trigger (event callbacks, process resumptions, the
    hops of ticks, deadlines and idle waits); the hops run inline
    (``inlined``) are not events and are reported on their own row.
    Given the simulated ``seconds`` the counts cover, each row also
    reads as entries per second."""
    kernel_py = str(Path("repro", "sim", "kernel.py"))
    by_function = Counter()
    to_ready = Counter()
    for (filename, _line, name), entry in stats.stats.items():
        if name in SCHEDULERS and filename.endswith(kernel_py):
            for (caller_file, caller_line, caller), counts in entry[4].items():
                module = module_name(caller_file)
                if name == "call_soon" and module == "repro.sim.events":
                    # A callback added to a settled event, an empty
                    # ``AllOf``: hops of events, not somebody's entry.
                    continue
                key = module, f"{caller}:{caller_line}", name
                by_function[key] += counts[0]
                to_ready[key] += (
                    ready[caller_file, caller_line, caller, name]
                    if name in ROUTED.values() else counts[0])
    totals = Counter()
    ready_totals = Counter()
    by_module = Counter()
    ready_by_module = Counter()
    for key, calls in by_function.items():
        module, _function, via = key
        totals[via] += calls
        ready_totals[via] += to_ready[key]
        by_module[module, via] += calls
        ready_by_module[module, via] += to_ready[key]

    def share(calls):
        return f"{100.0 * calls / events_processed:5.1f} %"

    def rate(calls):  # the per-second column, when there is one
        return "" if seconds is None else f"  {calls / seconds:>7.1f}"

    per_s = "" if seconds is None else "  per s  "

    print("--- who schedules the kernel's events "
          f"({events_processed} processed) ---")
    for via in SCHEDULERS:
        print(f"Kernel.{via}: {totals[via]} calls, {share(totals[via])} "
              f"of events_processed; heap {totals[via] - ready_totals[via]}, "
              f"ready {ready_totals[via]}")
    print(f"Timer hops run inline: {inlined}, {share(inlined)} "
          "of events_processed, not in it; with them "
          f"{events_processed + inlined} entries")
    print(f"\n    calls    share{per_s}       heap      ready  via           "
          "module")
    for key, calls in by_module.most_common():
        module, via = key
        print(f"{calls:>9}  {share(calls)}{rate(calls)}  "
              f"{calls - ready_by_module[key]:>9}  "
              f"{ready_by_module[key]:>9}  {via:12}  {module}")
    print(f"\n    calls    share{per_s}       heap      ready  via           "
          f"function:line (top {lines})")
    for key, calls in by_function.most_common(lines):
        module, function, via = key
        print(f"{calls:>9}  {share(calls)}{rate(calls)}  "
              f"{calls - to_ready[key]:>9}  "
              f"{to_ready[key]:>9}  {via:12}  {module}.{function}")


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
                             "events_processed, split into heap and "
                             "ready-queue entries")
    parser.add_argument("--rpcs", action="store_true",
                        help="instead of cProfile: who issues the network's "
                             "calls, as caller kind x endpoint x method with "
                             "shares of all calls made")
    parser.add_argument("--passes", action="store_true",
                        help="instead of cProfile: what enqueues the "
                             "reconcilers' keys, as reconciler kind x cause "
                             "with coalesced adds and passes")
    parser.add_argument("--lists", action="store_true",
                        help="instead of cProfile: who calls ApiServer.list, "
                             "by calling function and pod index (owner, "
                             "node, unscheduled, none) with shares of all "
                             "lists")
    parser.add_argument("--wakes", action="store_true",
                        help="instead of cProfile: process resumes by "
                             "generator function and process name, with "
                             "shares of all resumes")
    parser.add_argument("--floor", action="store_true",
                        help="instead of a run: a workload's platform with "
                             "no job, its events per idle simulated second "
                             "split by source as --events splits them")
    args = parser.parse_args(argv)
    if args.floor:
        floor_census(args.workload or "steady", args.seed, args.lines)
        return 0
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
        """The run's result row and its host wall seconds."""
        start = time.perf_counter()
        if args.workload:
            result = run_workload(args.workload, args.seed)[0]
        else:
            result = run_scale_scenario(partitions=1, **scenario)
        return result, time.perf_counter() - start

    if args.rpcs:
        rpc_census(run, args.lines)
        return 0
    if args.passes:
        pass_census(run)
        return 0
    if args.lists:
        list_census(run, args.lines)
        return 0
    if args.wakes:
        wake_census(run, args.lines)
        return 0

    if args.events:
        # Kernel.__init__ reads the name when it builds its ready queue.
        kernel_module.deque = ReadyCensus
    profiler = cProfile.Profile()
    profiler.enable()
    result, wall = run()
    profiler.disable()

    print_result(result, wall)
    stats = pstats.Stats(profiler, stream=sys.stdout)
    if args.events:
        event_census(stats, result["events_processed"],
                     result["dispatches_inlined"], ReadyCensus.appended,
                     args.lines)
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
