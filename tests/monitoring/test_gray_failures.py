"""End-to-end gray-failure matrix: every injectable gray fault kind
must be caught by the differential pipeline (per-endpoint counters ->
``gray_divergence`` recording rule -> ``GrayFailure*`` alert -> Warning
event) while the target's health probe stays up the whole time — the
regime the crash-oriented fault matrix in
``tests/integration/test_monitoring_e2e.py`` cannot see.
"""

from repro.core import Fault, GrayFailureInjector, fire
from repro.docstore import MongoClient
from repro.raftkv import EtcdClient

from ..integration.conftest import (
    make_platform,
    manifest,
    submit_and_wait_running,
)

# Tight monitoring cadence plus a short divergence window / alert hold
# so each scenario detects, fires and resolves within a few simulated
# seconds of the injection.
GRAY = dict(scrape_interval=0.05, alert_eval_interval=0.05,
            gray_window=2.0, gray_alert_for=0.4)

FAULT_DURATION = 6.0


def assert_gray_detected(platform, target, role, rule, kind, inject_time):
    """The gray-failure acceptance check for one injected fault: the
    target's ``up`` never dips while the fault is live, the matching
    GrayFailure* alert walks pending -> firing -> resolved after the
    fault clears, and the injection is visible in the counter metric
    and precedes the detection in the event log."""
    store = platform.monitoring.store
    series = store.get("up", {"component": role})
    assert series is not None, f"no up series for {role}"
    window = series.window(inject_time, inject_time + FAULT_DURATION)
    assert window, f"no up samples for {role} during the fault"
    assert all(v == 1.0 for _, v in window), \
        f"up{{component={role}}} dipped during a gray fault: {window}"

    transitions = platform.monitoring.engine.transitions(rule)
    for hop in (("inactive", "pending"), ("pending", "firing"),
                ("firing", "resolved")):
        assert hop in transitions, (rule, hop, transitions)

    warnings = platform.events.warnings(reason=rule)
    assert warnings and warnings[0].kind == "Component"
    assert warnings[0].name == target
    assert platform.events.events(reason="AlertResolved", name=target)

    # The injection itself was recorded: counter series scraped, and
    # the FaultInjected event strictly precedes the detection.
    assert store.get("fault_injected_total",
                     {"target": target, "kind": kind}) is not None
    injected = [e for e in platform.events.warnings(reason="FaultInjected")
                if e.name == target]
    assert injected, f"no FaultInjected event for {target}"
    assert min(e.first_time for e in injected) <= warnings[0].first_time


def start_job(platform, steps=3000):
    client = platform.client("team-a")
    job_id = submit_and_wait_running(platform, client,
                                     manifest(target_steps=steps))
    return client, job_id


def drive_status_polls(platform, client, job_id, period=0.05):
    """Steady API read traffic: the balancer round-robins the polls
    across replicas, giving every endpoint a peer-comparable series."""

    def poll():
        while True:
            yield from client.status(job_id)
            yield platform.kernel.sleep(period)

    platform.kernel.spawn(poll(), name="gray-status-poller")


def drive_mongo_writes(platform, period=0.05):
    """Steady write traffic so each secondary sees a dense stream of
    ``replicate`` calls to diverge on."""
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
    """Steady etcd writes: entry-carrying ``append_entries`` are what
    a disk stall delays (empty ones are ``heartbeat`` calls and skip
    the disk)."""
    etcd = EtcdClient(platform.kernel, platform.network, platform.etcd,
                      client_id="gray-etcd-writer")

    def puts():
        n = 0
        while True:
            n += 1
            yield from etcd.put("/gray/probe", str(n))
            yield platform.kernel.sleep(period)

    platform.kernel.spawn(puts(), name="gray-etcd-writer")


class TestGrayFaultMatrix:
    """One scenario per injectable gray fault kind."""

    def test_slow_api_replica_detected(self):
        platform = make_platform(**GRAY)
        client, job_id = start_job(platform)
        drive_status_polls(platform, client, job_id)
        platform.run_for(3.0)  # healthy peer baseline

        target = platform.api_balancer.endpoints[0]
        inject_time = platform.kernel.now
        fire(platform, Fault("slow", target, 0.05, FAULT_DURATION))
        platform.run_for(13.0)
        assert_gray_detected(platform, target, "api", "GrayFailureSlow",
                             "slow", inject_time)

    def test_oneway_partition_detected(self):
        platform = make_platform(**GRAY)
        drive_mongo_writes(platform)
        platform.run_for(3.0)

        primary = platform.mongo.primary_id()
        victim = GrayFailureInjector(platform).mongo_secondaries()[0]
        inject_time = platform.kernel.now
        fire(platform, Fault("oneway", (primary, victim),
                             duration=FAULT_DURATION))
        platform.run_for(13.0)
        # Replication into the victim fails while everything else —
        # including the victim's own health — keeps working.
        assert_gray_detected(platform, victim, "mongo",
                             "GrayFailurePartition", "partition", inject_time)

    def test_lossy_link_detected(self):
        platform = make_platform(**GRAY)
        drive_mongo_writes(platform)
        platform.run_for(3.0)

        victim = GrayFailureInjector(platform).mongo_secondaries()[0]
        inject_time = platform.kernel.now
        fire(platform, Fault("loss", victim, 0.5, FAULT_DURATION))
        platform.run_for(13.0)
        assert_gray_detected(platform, victim, "mongo",
                             "GrayFailurePartition", "loss", inject_time)

    def test_duplicating_link_detected(self):
        platform = make_platform(**GRAY)
        platform.run_for(3.0)  # heartbeat traffic is the baseline

        victim = GrayFailureInjector(platform).etcd_followers()[0]
        inject_time = platform.kernel.now
        fire(platform, Fault("duplicate", victim, 0.9, FAULT_DURATION))
        platform.run_for(13.0)
        # The server handles ~1.9x the requests its callers sent — the
        # flow anomaly fires the link signal without any peer baseline.
        assert_gray_detected(platform, victim, "etcd",
                             "GrayFailurePartition", "duplicate", inject_time)

    def test_mongo_disk_stall_detected(self):
        platform = make_platform(**GRAY)
        drive_mongo_writes(platform)
        platform.run_for(3.0)

        victim = GrayFailureInjector(platform).mongo_secondaries()[0]
        inject_time = platform.kernel.now
        # 0.15 s stays under the 0.25 s replicate deadline: writes
        # succeed, slowly — a gray fault, not an outage.
        fire(platform, Fault("disk-stall", victim, 0.15, FAULT_DURATION))
        platform.run_for(13.0)
        assert_gray_detected(platform, victim, "mongo",
                             "GrayFailureDiskStall", "disk-stall",
                             inject_time)

    def test_etcd_disk_stall_detected(self):
        platform = make_platform(**GRAY)
        drive_etcd_puts(platform)
        platform.run_for(3.0)

        victim = GrayFailureInjector(platform).etcd_followers()[0]
        inject_time = platform.kernel.now
        # 0.04 s stays under the 0.06 s Raft rpc timeout, and empty
        # heartbeats skip the stall, so no election is triggered.
        fire(platform, Fault("disk-stall", victim, 0.04, FAULT_DURATION))
        platform.run_for(13.0)
        assert_gray_detected(platform, victim, "etcd",
                             "GrayFailureDiskStall", "disk-stall",
                             inject_time)


    def test_etcd_disk_stall_detected_at_one_put_a_second(self):
        """The organic write rate of a quiet platform. The write signal
        is a mean over log writes — empty appends are ``heartbeat``
        calls, a method of their own — so a handful of slow appends in
        the window is enough; averaged in with twenty fast heartbeats
        a second they moved the mean by less than the noise floor."""
        duration = 20.0
        # The stock 8 s window and 1 s hold; only the scrape cadence is
        # tightened to keep the run short.
        platform = make_platform(scrape_interval=0.25,
                                 alert_eval_interval=0.25)
        drive_etcd_puts(platform, period=1.0)
        platform.run_for(10.0)

        victim = GrayFailureInjector(platform).etcd_followers()[0]
        inject_time = platform.kernel.now
        fire(platform, Fault("disk-stall", victim, 0.04, duration))
        platform.run_for(duration + 15.0)
        assert_gray_detected(platform, victim, "etcd",
                             "GrayFailureDiskStall", "disk-stall",
                             inject_time)

