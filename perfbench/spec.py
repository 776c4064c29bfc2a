"""Every metric the benchmark prints: name, unit, direction, bound.

``BENCHMARK.json`` at the repo root is ``benchmark_json()`` written out
(tests/test_spec.py keeps the two equal), so a name is defined once.
"""

from .layers import LAYERS, PROBES
from .measure import HOPS, TAIL_HOPS
from .workloads import WORKLOADS

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 20

# name, unit, clock, bound. All are better lower. Host-clock values are
# medians over the iterations of a run (cpu_ref in units of the reference
# loop, see reference.py); simulated-clock values are exact for a seed
# and vary only from seed to seed. Each bound is at least three times the
# quartile distance seen across ten seeds.
END_TO_END = (
    ("setup_s", "s", "host", 0.25),
    ("cpu_ref", "ref", "host", 0.25),
    ("peak_rss_mb", "MB", "host", 0.10),
    ("sim_makespan_s", "s", "simulated", 0.05),
    ("submit_ack_p50_s", "s", "simulated", 0.05),
    ("queue_to_run_p50_s", "s", "simulated", 0.02),
    ("guardian_ready_p50_s", "s", "simulated", 0.10),
)

HIGHER_IS_BETTER = {"audit.ops_checked"}


def _unit(name):
    if name.endswith(("_s", ".host_s")):
        return "s"
    if name.endswith("host_us_per_event"):
        return "us"
    if name.endswith(("_ratio", ".host_share")):
        return "ratio"
    if name == "objectstore.bytes":
        return "bytes"
    return "count"


def per_layer_names():
    names = [
        "sim.kernel.events", "sim.kernel.events_per_job",
        "sim.kernel.dead_entry_ratio", "total.host_us_per_event",
        "total.cpu_s", "total.wall_s",
        "sim.reconciler.adds", "sim.reconciler.retries",
        "sim.reconciler.queue_wait_p95_sim_s",
        "sim.reconciler.work_p95_sim_s",
        "sim.metrics.series", "sim.tracing.records", "sim.tracing.spans",
        "grpcnet.rpcs", "grpcnet.rpc_errors", "grpcnet.rpc_p95_sim_s",
        "raftkv.applied", "raftkv.elections", "raftkv.duplicate_applies",
        "raftkv.commit_p95_sim_s",
        "cluster.pods_scheduled", "cluster.preemptions",
        "cluster.placement_p95_sim_s",
        "core.api_requests", "core.admission_rejected",
        "core.deploy_attempts", "core.deploy_rollbacks",
        "core.slice_adoptions",
    ]
    names += [f"core.hop.{hop}_p50_s" for hop in HOPS]
    names += [f"core.hop.{hop}_p90_s" for hop in TAIL_HOPS]
    names += [f"core.recovery.{c}_max_s"
              for c in ("api", "lcm", "guardian", "helper", "learner", "ctrl")]
    names += [
        "monitoring.scrapes", "monitoring.alert_transitions",
        "monitoring.events", "audit.ops_checked", "audit.violations",
        "nfs.ops", "nfs.op_errors", "objectstore.bytes",
        "tenant.submit_ack_p90_s", "tenant.queue_to_run_p90_s",
        "tenant.guardian_ready_p90_s",
        "driver.late_max_sim_s", "driver.faults_skipped",
        "trace.overhead_ratio", "trace.samples",
    ]
    for probe in PROBES:
        names += [f"{probe}.calls", f"{probe}.host_s"]
    for layer in LAYERS:
        names += [f"{layer}.host_share", f"{layer}.host_us_per_event"]
    return names


PER_LAYER = tuple(
    (name, _unit(name), "higher" if name in HIGHER_IS_BETTER else "lower")
    for name in per_layer_names())

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json():
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": [{"name": name, "unit": unit, "better": "lower",
                        "bound": bound}
                       for name, unit, _clock, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better in PER_LAYER],
    }
