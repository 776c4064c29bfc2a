"""End-to-end monitoring: the paper's fault matrix through the full
scrape -> series -> alert -> event pipeline, the non-perturbation
guarantee (bit-identical job timeline with the stack stopped), and the
REST operational surface (/healthz, /metrics, metrics auth).
"""

from repro.core import Fault, fire
from repro.core.rest import RestClient

from ..monitoring.test_gray_failures import GRAY
from .conftest import (
    make_platform,
    manifest,
    submit_and_wait_running,
    wait_terminal,
)

# Tight monitoring cadence so detection latency, not scrape cadence,
# dominates each scenario's runtime.
FAST = dict(scrape_interval=0.05, alert_eval_interval=0.05)


def assert_fault_detected(platform, component, rule, crash_time):
    """The acceptance criteria's three-part check for one injected fault:
    an ``up`` dip in scraped history, the alert walking
    pending -> firing -> resolved, and the Warning/resolution events."""
    series = platform.monitoring.store.get("up", {"component": component})
    assert series is not None, f"no up series for {component}"
    window = series.window(crash_time, platform.kernel.now)
    assert any(v == 0.0 for _, v in window), f"no up dip for {component}"
    assert series.latest_value() == 1.0, f"{component} never recovered"

    transitions = platform.monitoring.engine.transitions(rule)
    for hop in (("inactive", "pending"), ("pending", "firing"),
                ("firing", "resolved")):
        assert hop in transitions, (rule, hop, transitions)

    warnings = platform.events.warnings(reason=rule)
    assert warnings and warnings[0].kind == "Component"
    assert warnings[0].name == component
    assert platform.events.events(reason="AlertResolved", name=component)


def non_leader_etcd_node(platform):
    leader = platform.etcd.leader()
    return next(node_id for node_id in platform.etcd.node_ids
                if node_id != leader.node_id)


class TestFaultMatrix:
    """One test per paper-evaluated crash (Fig. 4 plus an etcd member)."""

    def test_api_pod_crash_detected(self):
        platform = make_platform(**FAST)
        when = platform.kernel.now
        pod = fire(platform, Fault("api"))
        platform.run_for(15.0)
        assert_fault_detected(platform, "api", "ApiDown", when)
        # The dying pod itself reported the crash on the way down.
        assert platform.events.warnings(reason="ComponentCrashed", name=pod)

    def test_lcm_pod_crash_detected(self):
        platform = make_platform(**FAST)
        when = platform.kernel.now
        pod = fire(platform, Fault("lcm"))
        platform.run_for(15.0)
        assert_fault_detected(platform, "lcm", "LcmDown", when)
        assert platform.events.warnings(reason="ComponentCrashed", name=pod)

    def test_guardian_crash_detected(self):
        platform = make_platform(**FAST)
        client = platform.client("team-a")
        job_id = submit_and_wait_running(platform, client,
                                         manifest(target_steps=3000))
        when = platform.kernel.now
        fire(platform, Fault("guardian", job_id))
        platform.run_for(12.0)
        assert_fault_detected(platform, "guardian", "GuardianDown", when)

    def test_helper_crash_detected(self):
        platform = make_platform(**FAST)
        client = platform.client("team-a")
        job_id = submit_and_wait_running(platform, client,
                                         manifest(target_steps=3000))
        when = platform.kernel.now
        fire(platform, Fault("helper", job_id))
        platform.run_for(12.0)
        assert_fault_detected(platform, "helper", "HelperDown", when)

    def test_learner_crash_detected(self):
        platform = make_platform(**FAST)
        client = platform.client("team-a")
        job_id = submit_and_wait_running(platform, client,
                                         manifest(target_steps=3000))
        when = platform.kernel.now
        fire(platform, Fault("learner-pod", (job_id, 0)))
        platform.run_for(12.0)
        assert_fault_detected(platform, "learner", "LearnerDown", when)

    def test_single_etcd_node_crash_detected(self):
        platform = make_platform(**FAST)
        victim = non_leader_etcd_node(platform)
        when = platform.kernel.now
        fire(platform, Fault("etcd-member", victim, duration=5.5))
        platform.run_for(5.0)
        # Quorum holds (the cluster is still live) but readiness is
        # degraded, so the alert fires while the member is down.
        assert platform.monitoring.engine.firing("EtcdDegraded")
        assert platform.health.snapshot()["components"]["etcd"]["status"] \
            == "degraded"
        platform.run_for(8.5)  # the member restarts at 5.5 s
        assert_fault_detected(platform, "etcd", "EtcdDegraded", when)


class TestMonitoringDoesNotPerturb:
    """Scraping, probing, alerting and gray-failure detection must not
    shift the simulation: at the tight gray-failure cadence, a job with
    a learner crash has the same timeline whether the stack runs or is
    stopped right after the platform starts."""

    @staticmethod
    def _timeline(stack_running):
        platform = make_platform(**GRAY)
        if not stack_running:
            platform.monitoring.stop()
        scrapes = platform.metrics.get("monitoring_scrapes_total")
        scrapes_at_start = scrapes.value
        client = platform.client("team-a")
        job_id = submit_and_wait_running(platform, client,
                                         manifest(target_steps=120))
        fire(platform, Fault("learner-pod", (job_id, 0)))
        doc = wait_terminal(platform, client, job_id)
        timeline = (doc["status"], doc["status_history"],
                    doc["completed_at"], platform.kernel.now)
        return timeline, scrapes.value - scrapes_at_start

    def test_job_timeline_bit_identical(self):
        running, scraped_running = self._timeline(stack_running=True)
        stopped, scraped_stopped = self._timeline(stack_running=False)
        assert running == stopped
        assert running[0] == "COMPLETED"
        # Not vacuous: one side observed the whole job, the other none.
        assert scraped_running > 0
        assert scraped_stopped == 0


class TestRestSurface:
    def test_healthz_ok_then_degraded(self):
        platform = make_platform()
        rest = RestClient(platform, token="")
        response = platform.run_process(rest.get("/healthz"), limit=10_000)
        assert response["status"] == 200
        body = response["body"]
        assert body["status"] == "ok"
        for component in ("api", "lcm", "etcd", "mongo", "nfs"):
            assert body["components"][component]["status"] == "ok"

        fire(platform, Fault("etcd-member", non_leader_etcd_node(platform)))
        response = platform.run_process(rest.get("/healthz"), limit=10_000)
        assert response["status"] == 503
        assert response["body"]["status"] == "degraded"
        assert response["body"]["components"]["etcd"]["status"] == "degraded"

    def test_metrics_auth_off_by_default(self):
        platform = make_platform()
        rest = RestClient(platform, token="")
        for path in ("/metrics", "/healthz"):
            response = platform.run_process(rest.get(path), limit=10_000)
            assert response["status"] == 200, path
        metrics_response = platform.run_process(rest.get("/metrics"),
                                                limit=10_000)
        assert "platform_events_total" in metrics_response["body"]

    def test_metrics_auth_gates_operational_endpoints(self):
        platform = make_platform(metrics_auth="scrape-secret")
        anonymous = RestClient(platform, token="")
        wrong = RestClient(platform, token="not-it")
        operator = RestClient(platform, token="scrape-secret")
        for path in ("/metrics", "/healthz"):
            for rejected in (anonymous, wrong):
                response = platform.run_process(rejected.get(path),
                                                limit=10_000)
                assert response["status"] == 401, path
            response = platform.run_process(operator.get(path), limit=10_000)
            assert response["status"] == 200, path
        # Tenant routes still use tenant tokens, unaffected by the gate.
        client = platform.client("team-a")
        tenant_rest = RestClient(platform, client.token)
        response = platform.run_process(tenant_rest.get("/v1/models"),
                                        limit=10_000)
        assert response["status"] == 200
