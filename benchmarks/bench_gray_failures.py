"""Gray-failure detection latency through the differential pipeline.

The crash fault matrix (Fig. 4, ``bench_fig4_recovery``) measures how
fast the platform notices a component that *died*. This bench measures
the failure class the paper never injected: components that keep
passing their health probes while degrading the traffic through them.
For every injectable gray fault kind — slow endpoint, asymmetric
one-way partition, probabilistic packet loss, packet duplication, and
disk stalls on mongo/etcd members — it records how long the
differential detector (peer-divergence ``gray_divergence`` recording
rule -> ``GrayFailure*`` alert) takes to move the alert to firing, and
how long after the fault clears the alert resolves. A crashed API pod
(``ApiDown``) is measured alongside as the reference: gray detection
pays for the divergence window, crash detection only for the probe.

Every scenario also asserts the defining property of the regime: the
target's ``up{component=...}`` series holds 1.0 for the entire fault —
crash monitoring alone would never have paged.

Invoke directly for the full measurement (updates the ``gray``
section of ``BENCH_perf.json`` and prints the EXPERIMENTS.md table)::

    PYTHONPATH=src python benchmarks/bench_gray_failures.py

``make check`` runs two of the scenarios under the same assertions
(the detector always runs, and with no fault injected the training
smoke timeline is pinned by ``tests/integration/test_timeline_pin.py``)::

    PYTHONPATH=src python -m pytest benchmarks -k smoke
"""

import sys

from conftest import write_section

from repro.bench import bench_manifest, build_platform, render_table
from repro.core import Fault, fire
from repro.docstore import MongoClient
from repro.raftkv import EtcdClient

# Tight cadence + short divergence window: the bench measures detector
# latency, not scrape cadence.
FAST = dict(scrape_interval=0.05, alert_eval_interval=0.05,
            gray_window=2.0, gray_alert_for=0.4)

BASELINE_S = 3.0       # healthy traffic before the injection
FAULT_DURATION = 6.0
SETTLE_S = 13.0        # fault + decay + resolution
# Budgets: detection pays scrape cadence + enough of the 2 s window to
# shift the mean + the 0.4 s `for:` hold; resolution pays the window
# draining the degraded samples after the fault clears.
DETECT_LIMIT_S = 4.0
RESOLVE_LIMIT_S = 4.0

COLUMNS = ["fault", "kind", "alert", "probe", "detect s", "resolve s"]


def _build(seed=17):
    return build_platform("k80", gpus_per_node=4, seed=seed, **FAST)


# ----------------------------------------------------------------------
# Traffic drivers: gray detection is differential, so every scenario
# needs a steady request stream for the divergence to show up in.
# ----------------------------------------------------------------------

def drive_status_polls(platform, period=0.05):
    """API read traffic, round-robined across replicas by the balancer."""
    client = platform.client("bench-gray")
    job_id = platform.run_process(client.submit(
        bench_manifest("vgg16", "tensorflow", 1, "k80", steps=100_000)))

    def poll():
        while True:
            yield from client.status(job_id)
            yield platform.kernel.sleep(period)

    platform.kernel.spawn(poll(), name="gray-status-poller")


def drive_mongo_writes(platform, period=0.05):
    """Write stream giving each secondary a dense ``replicate`` series."""
    mongo = MongoClient(platform.kernel, platform.network, platform.mongo,
                        platform.tracer, caller="gray-write-driver")

    def writes():
        n = 0
        while True:
            n += 1
            yield from mongo.update_one("gray_probe", {"_id": "probe"},
                                        {"$set": {"n": n}}, upsert=True)
            yield platform.kernel.sleep(period)

    platform.kernel.spawn(writes(), name="gray-mongo-writer")


def drive_etcd_puts(platform, period=0.05):
    """etcd writes so entry-carrying appends dominate follower latency."""
    etcd = EtcdClient(platform.kernel, platform.network, platform.etcd,
                      client_id="gray-etcd-writer")

    def puts():
        n = 0
        while True:
            n += 1
            yield from etcd.put("/gray/probe", str(n))
            yield platform.kernel.sleep(period)

    platform.kernel.spawn(puts(), name="gray-etcd-writer")


# ----------------------------------------------------------------------
# Scenarios: one per injectable gray fault kind
# ----------------------------------------------------------------------

# Targets on the seed-17 platform: an API replica, the Mongo primary
# (the lowest live id) and a secondary, an etcd follower (etcd-1 leads).
API_REPLICA = "api:dlaas-api-1"
MONGO_PRIMARY, MONGO_SECONDARY = "mongo-0", "mongo-1"
ETCD_FOLLOWER = "etcd-0"

SCENARIOS = {
    "slow-endpoint": dict(
        kind="slow", rule="GrayFailureSlow", role="api",
        drive=drive_status_polls,
        fault=Fault("slow", API_REPLICA, 0.05, FAULT_DURATION)),
    "oneway-partition": dict(
        kind="partition", rule="GrayFailurePartition", role="mongo",
        drive=drive_mongo_writes,
        fault=Fault("oneway", (MONGO_PRIMARY, MONGO_SECONDARY),
                    duration=FAULT_DURATION)),
    "packet-loss": dict(
        kind="loss", rule="GrayFailurePartition", role="mongo",
        drive=drive_mongo_writes,
        fault=Fault("loss", MONGO_SECONDARY, 0.5, FAULT_DURATION)),
    "packet-duplication": dict(
        kind="duplicate", rule="GrayFailurePartition", role="etcd",
        drive=None,  # raft heartbeats are the traffic
        fault=Fault("duplicate", ETCD_FOLLOWER, 0.9, FAULT_DURATION)),
    "disk-stall-mongo": dict(
        kind="disk-stall", rule="GrayFailureDiskStall", role="mongo",
        drive=drive_mongo_writes,
        fault=Fault("disk-stall", MONGO_SECONDARY, 0.15, FAULT_DURATION)),
    "disk-stall-etcd": dict(
        kind="disk-stall", rule="GrayFailureDiskStall", role="etcd",
        drive=drive_etcd_puts,
        fault=Fault("disk-stall", ETCD_FOLLOWER, 0.04, FAULT_DURATION)),
}


def _hop_time(engine, rule, component, to_state, after=0.0):
    for record in engine.history:
        if (record["rule"] == rule and record["to"] == to_state
                and record["time"] >= after
                and dict(record["labels"]).get("component") == component):
            return record["time"]
    return None


def run_gray(name, seed=17):
    spec = SCENARIOS[name]
    platform = _build(seed)
    if spec["drive"] is not None:
        spec["drive"](platform)
    platform.run_for(BASELINE_S)

    assert platform.mongo.primary_id() == MONGO_PRIMARY
    assert platform.etcd.leader().node_id != ETCD_FOLLOWER
    target = fire(platform, spec["fault"])
    inject_time = platform.kernel.now
    platform.run_for(SETTLE_S)

    engine = platform.monitoring.engine
    rule = spec["rule"]
    clear_time = inject_time + FAULT_DURATION
    firing_at = _hop_time(engine, rule, target, "firing", inject_time)
    resolved_at = _hop_time(engine, rule, target, "resolved", clear_time)
    series = platform.monitoring.store.get("up", {"component": spec["role"]})
    window = series.window(inject_time, clear_time) if series else []
    up_clean = bool(window) and all(v == 1.0 for _, v in window)
    return {
        "fault": name,
        "kind": spec["kind"],
        "target": target,
        "alert": rule,
        "probe_up_throughout": up_clean,
        "detect_s": (None if firing_at is None
                     else round(firing_at - inject_time, 2)),
        "resolve_s": (None if resolved_at is None
                      else round(resolved_at - clear_time, 2)),
    }


def run_crash_reference(seed=17):
    """The crash-detection baseline the gray numbers compare against:
    ApiDown fires off a probe dip, no divergence window to fill."""
    platform = _build(seed)
    platform.run_for(BASELINE_S)
    when = platform.kernel.now
    pod = fire(platform, Fault("api"))
    platform.run_for(SETTLE_S)
    engine = platform.monitoring.engine
    firing_at = _hop_time(engine, "ApiDown", "api", "firing", when)
    resolved_at = _hop_time(engine, "ApiDown", "api", "resolved", when)
    return {
        "fault": "crash-api (reference)",
        "kind": "crash",
        "target": pod,
        "alert": "ApiDown",
        "probe_up_throughout": False,  # the probe IS the detector here
        "detect_s": None if firing_at is None else round(firing_at - when, 2),
        # For the crash row this is crash -> pod restarted -> alert
        # cleared, i.e. the Fig. 4 recovery path, not window decay.
        "resolve_s": (None if resolved_at is None
                      else round(resolved_at - when, 2)),
    }


def assert_gray(result):
    for row in result["faults"]:
        if row["kind"] == "crash":
            assert row["detect_s"] is not None, row
            continue
        assert row["probe_up_throughout"], (
            f"health probe dipped during a gray fault: {row}")
        assert row["detect_s"] is not None, f"never fired: {row}"
        assert row["detect_s"] <= DETECT_LIMIT_S, (
            f"detection took {row['detect_s']}s (limit {DETECT_LIMIT_S}s): "
            f"{row}")
        assert row["resolve_s"] is not None, f"never resolved: {row}"
        assert row["resolve_s"] <= RESOLVE_LIMIT_S, (
            f"resolution took {row['resolve_s']}s "
            f"(limit {RESOLVE_LIMIT_S}s): {row}")
    return result


def render(result):
    rows = [{
        "fault": row["fault"],
        "kind": row["kind"],
        "alert": row["alert"],
        "probe": "up" if row["probe_up_throughout"] else "dips",
        "detect s": "-" if row["detect_s"] is None else row["detect_s"],
        "resolve s": "-" if row["resolve_s"] is None else row["resolve_s"],
    } for row in result["faults"]]
    return render_table(
        "Gray-failure detection latency (inject -> GrayFailure* firing)",
        COLUMNS, rows)


def run_full():
    faults = [run_gray(name) for name in SCENARIOS]
    faults.append(run_crash_reference())
    return {"faults": faults}


def test_gray_smoke():
    """``make check`` entry: one latency-signal and one
    write-latency-signal scenario."""
    assert_gray({"faults": [run_gray("slow-endpoint"),
                            run_gray("disk-stall-mongo")]})


def test_gray_gate(record_table):
    """Benchmark-suite entry: full gray matrix + invariants."""
    result = assert_gray(run_full())
    record_table("gray_failures", render(result))


def main():
    result = assert_gray(run_full())
    print(render(result))
    write_section("gray", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
