"""The fault vocabulary, one row per kind: ``fire`` each kind once at a
running one-job platform, check what it broke, then check that it came
back (reverted, restarted, or recreated by Kubernetes) after its
``duration``. A kind added to ``KINDS`` without a row here fails
``test_every_kind_has_a_row``."""

import pytest

from repro.core import DlaasError, Fault, fire, recovery_time
from repro.core.faults import KINDS

from ..integration.conftest import make_platform, manifest, submit_and_wait_running

DURATION = 5.0  # revert or restart after this many simulated seconds
RECOVERY = 30.0  # ample for any pod or container to serve again


def follower(platform):
    leader = platform.etcd.leader().node_id
    return next(n for n in platform.etcd.node_ids if n != leader)


def api_endpoint(platform):
    return platform.api_balancer.endpoints[0]


def pod_gone(component, **match):
    """Effect of a pod crash: the pod is deleted; Kubernetes brings the
    component back under a new incarnation."""

    def effect(platform, name):
        api = platform.k8s.api
        assert not api.exists("Pod", name) or api.get("Pod", name).deletion_requested

    def after(platform, name, when, job_id):
        match_ = {key: job_id for key in match}
        assert recovery_time(platform, component, when, **match_) is not None

    return effect, after


def container_restarted(component):
    """Effect of a container crash: the same pod restarts it in place."""

    def effect(platform, name):
        assert platform.k8s.api.exists("Pod", name)

    def after(platform, name, when, job_id):
        assert platform.k8s.kubectl.get_pod(name).restart_count >= 1
        assert recovery_time(platform, component, when, job=job_id) is not None

    return effect, after


def alive_toggle(lookup):
    """Effect of a machine or member crash: down now, up after
    ``duration``."""

    def effect(platform, name):
        assert not lookup(platform, name).alive

    def after(platform, name, when, job_id):
        assert lookup(platform, name).alive

    return effect, after


def impaired(attribute):
    def effect(platform, name):
        assert getattr(platform.network._impaired[name], attribute) == 0.25

    def after(platform, name, when, job_id):
        assert name not in platform.network._impaired

    return effect, after


def oneway_effect(platform, name):
    assert platform.network._blocked("mongo-0", name)
    assert not platform.network._blocked(name, "mongo-0")


def oneway_after(platform, name, when, job_id):
    assert not platform.network._blocked("mongo-0", name)


def stall_effect(platform, name):
    assert platform.etcd.node(name).disk_stall == 0.04


def stall_after(platform, name, when, job_id):
    assert platform.etcd.node(name).disk_stall == 0.0
    assert platform.faults.stall_layers == {}


# kind -> (fault at this platform and job, effect now, state after)
ROWS = {
    "api": (lambda p, job: Fault("api"), *pod_gone("api")),
    "lcm": (lambda p, job: Fault("lcm"), *pod_gone("lcm")),
    "guardian": (lambda p, job: Fault("guardian", job),
                 *pod_gone("guardian", job=True)),
    "helper": (lambda p, job: Fault("helper", job),
               *pod_gone("controller", job=True)),
    "learner-pod": (lambda p, job: Fault("learner-pod", (job, 0)),
                    *pod_gone("learner-0", job=True)),
    "controller-container": (lambda p, job: Fault("controller-container", job),
                             *container_restarted("controller")),
    "learner-container": (lambda p, job: Fault("learner-container", job),
                          *container_restarted("learner-0")),
    "node": (lambda p, job: Fault("node", job, duration=DURATION),
             *alive_toggle(lambda p, name: p.k8s.kubelets[name])),
    "etcd-member": (lambda p, job: Fault("etcd-member", follower(p),
                                         duration=DURATION),
                    *alive_toggle(lambda p, name: p.etcd.node(name))),
    "mongo-member": (lambda p, job: Fault("mongo-member", "mongo-1",
                                          duration=DURATION),
                     *alive_toggle(lambda p, name: p.mongo.member(name))),
    "slow": (lambda p, job: Fault("slow", api_endpoint(p), 0.25, DURATION),
             *impaired("extra_latency")),
    "oneway": (lambda p, job: Fault("oneway", ("mongo-0", "mongo-1"),
                                    duration=DURATION),
               oneway_effect, oneway_after),
    "loss": (lambda p, job: Fault("loss", "mongo-1", 0.25, DURATION),
             *impaired("loss")),
    "duplicate": (lambda p, job: Fault("duplicate", follower(p), 0.25, DURATION),
                  *impaired("duplicate")),
    "disk-stall": (lambda p, job: Fault("disk-stall", follower(p), 0.04, DURATION),
                   stall_effect, stall_after),
}

GRAY = {"slow", "oneway", "loss", "duplicate", "disk-stall"}


def running_job():
    platform = make_platform()
    client = platform.client("team-a")
    job_id = submit_and_wait_running(platform, client,
                                     manifest(target_steps=5000))
    platform.run_for(20.0)  # past the learner's first checkpoint
    return platform, job_id


def injections(platform):
    """The fault injector's trace records of injections (not of
    clears)."""
    return [r for r in platform.tracer.query(component="fault-injector")
            if r.kind != "gray-cleared"]


def test_every_kind_has_a_row():
    assert set(ROWS) == set(KINDS)


@pytest.mark.parametrize("kind", sorted(ROWS))
def test_fire_breaks_then_recovers(kind):
    make_fault, effect, after = ROWS[kind]
    platform, job_id = running_job()
    fault = make_fault(platform, job_id)
    injected = len(injections(platform))
    when = platform.kernel.now
    name = fire(platform, fault)
    effect(platform, name)
    # Gray faults are recorded under the name they hit; crashes are not.
    recorded = injections(platform)[injected:]
    assert [r.fields["target"] for r in recorded] == (
        [name] if kind in GRAY else [])
    platform.run_for(DURATION + RECOVERY)
    after(platform, name, when, job_id)


class TestRefused:
    @pytest.fixture(scope="class")
    def platform(self):
        return make_platform()

    @pytest.mark.parametrize("fault", [
        Fault("guardian", "job-99999"), Fault("helper", "job-99999"),
        Fault("controller-container", "job-99999"),
        Fault("learner-pod", ("job-99999", 0)),
        Fault("learner-container", "job-99999"), Fault("node", "job-99999"),
        Fault("etcd-member", "etcd-9"), Fault("mongo-member", "mongo-9"),
        Fault("disk-stall", "etcd-9", 0.04),
    ], ids=lambda fault: fault.kind)
    def test_absent_target(self, platform, fault):
        with pytest.raises(DlaasError):
            fire(platform, fault)

    def test_no_live_api_pod(self):
        platform = make_platform()
        replicas = len(platform.api_balancer.endpoints)
        for _ in range(replicas):
            fire(platform, Fault("api"))
        with pytest.raises(DlaasError):
            fire(platform, Fault("api"))

    def test_etcd_crash_that_would_lose_quorum(self):
        platform = make_platform()
        first, second = [n for n in platform.etcd.node_ids
                         if n != platform.etcd.leader().node_id]
        fire(platform, Fault("etcd-member", first))
        with pytest.raises(DlaasError):
            fire(platform, Fault("etcd-member", second))
        with pytest.raises(DlaasError):
            fire(platform, Fault("etcd-member", first))  # already down
        assert platform.etcd.node(second).alive
