"""One iteration of a workload: time it, read it, check it.

Everything is read from outside after the run — kernel counters, the
metrics registry, trace records, status histories — so the platform runs
exactly as it does without the benchmark.
"""

import gc
import hashlib
import time
from dataclasses import dataclass, field

from repro.core import COMPLETED, IllegalTransition, validate_transition

from .layers import LAYERS, PROBES
from .stats import percentile
from .workloads import CRASHES, drive, make_platform

LIFECYCLE = ("QUEUED", "DEPLOYING", "DOWNLOADING", "PROCESSING", "STORING",
             "COMPLETED")
HOPS = tuple(f"{a.lower()}_to_{b.lower()}"
             for a, b in zip(LIFECYCLE, LIFECYCLE[1:]))
TAIL_HOPS = HOPS[:2]
CONTROL_PLANE = ("api", "lcm", "guardian", "helper")
# Reported in place of a percentile that has too few samples beyond it.
WITHHELD = -1.0


@dataclass
class Iteration:
    setup_s: float  # CPU seconds to build, start and seed the platform
    cpu_s: float  # CPU seconds of the measured window
    wall_s: float  # wall seconds of the measured window
    events: int
    digest: str
    attempted: int
    failed: int
    sim: dict  # simulated-clock end-to-end metrics
    counts: dict  # per-layer metrics read from public state
    samples: dict  # metric name -> sample count behind a percentile
    problems: list = field(default_factory=list)
    skipped_faults: list = field(default_factory=list)
    ref_s: float = None  # CPU seconds of the reference loop beside it
    probes: dict = None  # traced iterations only
    shares: dict = None
    stack_samples: int = 0


def run_iteration(workload, seed, trace=None):
    """Host time is taken on two clocks: the process's CPU time, which
    is what the metrics build on (the simulator is one thread that never
    blocks, so on an idle machine the two agree, and CPU time does not
    count the moments the process was descheduled), and wall time."""
    gc.collect()
    if trace is not None:
        trace.install()
    try:
        started = time.process_time()
        platform = make_platform(workload, seed)
        setup_s = time.process_time() - started
        events_before = platform.kernel.events_processed
        if trace is not None:
            trace.begin()
        wall_started = time.perf_counter()
        started = time.process_time()
        try:
            outcome = drive(platform, workload, seed)
        finally:
            cpu_s = time.process_time() - started
            wall_s = time.perf_counter() - wall_started
            if trace is not None:
                trace.end()
    finally:
        if trace is not None:
            trace.uninstall()
    iteration = observe(
        platform, workload, outcome,
        events=platform.kernel.events_processed - events_before,
        setup_s=setup_s, cpu_s=cpu_s, wall_s=wall_s)
    if trace is not None:
        iteration.probes = {
            name: (trace.probes.calls[name], trace.probes.self_ns[name],
                   trace.probes.cum_ns[name]) for name in PROBES}
        iteration.shares = trace.sampler.shares()
        iteration.stack_samples = sum(trace.sampler.samples.values())
    return iteration


# ----------------------------------------------------------------------
# Reading the finished run
# ----------------------------------------------------------------------

def timeline_digest(platform, docs):
    """Everything the simulation decided: trace, histories, final clock
    (the fingerprint ``BENCH_perf.json`` commits)."""
    trace = [(round(r.time, 9), r.component, r.kind)
             for r in platform.tracer.records]
    histories = [[(h["status"], round(h["time"], 9))
                  for h in doc["status_history"]] for doc in docs]
    blob = repr((trace, histories, round(platform.kernel.now, 9)))
    return hashlib.sha256(blob.encode()).hexdigest()


def first_times(doc):
    """Status -> time it was first entered."""
    times = {}
    for entry in doc["status_history"]:
        times.setdefault(entry["status"], entry["time"])
    return times


def check_history(doc, problems):
    history = doc["status_history"]
    job = doc["job_id"]
    for before, after in zip(history, history[1:]):
        try:
            validate_transition(before["status"], after["status"])
        except IllegalTransition:
            problems.append(f"{job}: illegal {before['status']} -> "
                            f"{after['status']}")
        if after["time"] < before["time"]:
            problems.append(f"{job}: history goes back in time")


def job_hops(doc, problems):
    """Hop durations between first entries of consecutive lifecycle
    statuses; they must add up to COMPLETED - QUEUED."""
    times = first_times(doc)
    if any(status not in times for status in LIFECYCLE):
        problems.append(f"{doc['job_id']}: completed without passing "
                        "through every status")
        return None
    hops = [times[b] - times[a] for a, b in zip(LIFECYCLE, LIFECYCLE[1:])]
    if min(hops) < 0 or abs(sum(hops) - (times["COMPLETED"]
                                         - times["QUEUED"])) > 1e-6:
        problems.append(f"{doc['job_id']}: hops do not add up")
    return hops


def guardian_ready_times(platform):
    """Per job: LCM ``guardian-created`` to the Guardian's first
    ``component-ready`` (the paper's < 3 s claim)."""
    created = {}
    for record in platform.tracer.query(component="lcm",
                                        kind="guardian-created"):
        created.setdefault(record.fields["job"], record.time)
    latencies = []
    for record in platform.tracer.query(component="guardian",
                                        kind="component-ready"):
        at = created.pop(record.fields["job"], None)
        if at is not None:
            latencies.append(record.time - at)
    return latencies


class Registry:
    """Read-only sums over the platform's metrics registry."""

    def __init__(self, registry):
        self.registry = registry

    def _children(self, name, where=None):
        family = self.registry.get(name)
        if family is None:
            return
        for values, child in family.children():
            labels = dict(zip(family.labelnames, values))
            if where is None or where(labels):
                yield child

    def total(self, name, where=None):
        return sum(child.value for child in self._children(name, where))

    def samples(self, name):
        out = []
        for child in self._children(name):
            out.extend(child.samples)
        return out


def observe(platform, workload, outcome, events, **timing):
    problems = []
    samples = {}
    docs = outcome.docs
    completed = [d for d in docs if d["status"] == COMPLETED]

    def pct(name, values, q):
        value, n = percentile(values, q)
        samples[name] = n
        return WITHHELD if value is None else value

    for doc in docs:
        check_history(doc, problems)
    hops = [h for h in (job_hops(d, problems) for d in completed) if h]
    leaked = platform.k8s.capacity_summary()["gpus_allocated"]
    if leaked:
        problems.append(f"{leaked} GPUs still allocated at the end")

    queue_to_run = [times["PROCESSING"] - times["QUEUED"]
                    for times in map(first_times, completed)
                    if "PROCESSING" in times]
    guardian = guardian_ready_times(platform)
    last_terminal = max((d["status_history"][-1]["time"] for d in docs),
                        default=outcome.first_submit)
    sim = {
        "sim_makespan_s": last_terminal - outcome.first_submit,
        "submit_ack_p50_s": pct("submit_ack_p50_s", outcome.acks, 50),
        "queue_to_run_p50_s": pct("queue_to_run_p50_s", queue_to_run, 50),
        "guardian_ready_p50_s": pct("guardian_ready_p50_s", guardian, 50),
    }

    kernel = platform.kernel
    reg = Registry(platform.metrics)
    counts = {
        "sim.kernel.events": events,
        "sim.kernel.events_per_job": events / workload.jobs,
        "sim.kernel.dead_entry_ratio": kernel.dead_entry_ratio,
        "sim.reconciler.adds": reg.total("workqueue_adds_total"),
        "sim.reconciler.retries": reg.total("workqueue_retries_total"),
        "sim.reconciler.queue_wait_p95_sim_s": pct(
            "sim.reconciler.queue_wait_p95_sim_s",
            reg.samples("workqueue_queue_duration_seconds"), 95),
        "sim.reconciler.work_p95_sim_s": pct(
            "sim.reconciler.work_p95_sim_s",
            reg.samples("workqueue_work_duration_seconds"), 95),
        "sim.metrics.series": (len(platform.monitoring.store)
                               if platform.monitoring else 0),
        "sim.tracing.records": len(platform.tracer.records),
        "sim.tracing.spans": len(platform.tracer.spans),
        "grpcnet.rpcs": reg.total("rpc_client_calls_total"),
        "grpcnet.rpc_errors": reg.total(
            "rpc_client_calls_total", lambda l: l["code"] != "ok"),
        "grpcnet.rpc_p95_sim_s": pct(
            "grpcnet.rpc_p95_sim_s",
            reg.samples("rpc_client_duration_seconds"), 95),
        "raftkv.applied": reg.total("raft_applied_entries_total"),
        "raftkv.elections": reg.total("raft_leader_elections_total"),
        "raftkv.duplicate_applies": reg.total("raft_duplicate_applies_total"),
        "raftkv.commit_p95_sim_s": pct(
            "raftkv.commit_p95_sim_s",
            reg.samples("raft_commit_duration_seconds"), 95),
        "cluster.pods_scheduled": reg.total("scheduler_scheduled_pods_total"),
        "cluster.preemptions": reg.total("scheduler_preemptions_total"),
        "cluster.placement_p95_sim_s": pct(
            "cluster.placement_p95_sim_s",
            reg.samples("scheduler_placement_latency_seconds"), 95),
        "core.api_requests": reg.total("api_requests_total"),
        "core.admission_rejected": reg.total("admission_rejected_total"),
        "core.deploy_attempts": reg.total("guardian_deploy_attempts_total"),
        "core.deploy_rollbacks": reg.total("guardian_deploy_rollbacks_total"),
        "core.slice_adoptions": reg.total("lcm_slice_adoptions_total"),
        "monitoring.scrapes": reg.total("monitoring_scrapes_total"),
        "monitoring.alert_transitions": reg.total("alert_transitions_total"),
        "monitoring.events": reg.total("platform_events_total"),
        "audit.ops_checked": reg.total("consistency_ops_checked_total"),
        "audit.violations": reg.total("consistency_violations_total"),
        "nfs.ops": reg.total("nfs_ops_total"),
        "nfs.op_errors": reg.total("nfs_op_errors_total"),
        "objectstore.bytes": reg.total("objectstore_transferred_bytes_total"),
        "tenant.submit_ack_p90_s": pct("tenant.submit_ack_p90_s",
                                       outcome.acks, 90),
        "tenant.queue_to_run_p90_s": pct("tenant.queue_to_run_p90_s",
                                         queue_to_run, 90),
        "tenant.guardian_ready_p90_s": pct("tenant.guardian_ready_p90_s",
                                           guardian, 90),
        "driver.late_max_sim_s": outcome.late_max,
    }
    for index, hop in enumerate(HOPS):
        values = [h[index] for h in hops]
        counts[f"core.hop.{hop}_p50_s"] = pct(f"core.hop.{hop}_p50_s",
                                               values, 50)
        if hop in TAIL_HOPS:
            counts[f"core.hop.{hop}_p90_s"] = pct(f"core.hop.{hop}_p90_s",
                                                   values, 90)

    recovery = {name: 0.0 for _component, name in CRASHES.values()}
    skipped = []
    for fault in outcome.faults:
        if fault.time is None:
            skipped.append(f"{fault.kind}@{fault.due:g}s")
            continue
        if fault.kind not in CRASHES:
            continue
        name = CRASHES[fault.kind][1]
        if fault.recovery is None:
            problems.append(f"{fault.kind} crashed at {fault.time:.3f} "
                            "never became ready again")
        else:
            recovery[name] = max(recovery[name], fault.recovery)
    for component, worst in recovery.items():
        counts[f"core.recovery.{component}_max_s"] = worst
    counts["core.recovery.ctrl_max_s"] = max(recovery[c]
                                             for c in CONTROL_PLANE)
    counts["driver.faults_skipped"] = len(skipped)
    if counts["audit.violations"]:
        problems.append(f"{counts['audit.violations']:g} keys with a "
                        "non-linearizable history")

    refused = sum(1 for job_id in outcome.job_ids if job_id is None)
    return Iteration(
        **timing, events=events,
        digest=timeline_digest(platform, docs),
        attempted=workload.jobs,
        failed=workload.jobs - len(completed),
        sim=sim, counts=counts, samples=samples, problems=problems
        + ([f"{refused} submissions refused"] if refused else []),
        skipped_faults=skipped)


def traced_metrics(iteration, untraced):
    """Per-layer metrics of a traced iteration's own instruments;
    ``untraced`` is the untraced iteration it is compared with."""
    out = {"trace.overhead_ratio": (iteration.cpu_s / iteration.ref_s)
           / (untraced.cpu_s / untraced.ref_s),
           "trace.samples": iteration.stack_samples,
           "total.cpu_s": untraced.cpu_s,
           "total.wall_s": untraced.wall_s,
           "total.host_us_per_event": untraced.cpu_s * 1e6
           / iteration.events}
    for name, (calls, self_ns, _cum_ns) in iteration.probes.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.host_s"] = self_ns / 1e9
    per_event_us = iteration.cpu_s * 1e6 / iteration.events
    for layer in LAYERS:
        share = iteration.shares[layer]
        out[f"{layer}.host_share"] = share
        out[f"{layer}.host_us_per_event"] = share * per_event_us
    return out
