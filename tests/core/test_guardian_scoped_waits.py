"""A Guardian's cluster wait wakes for its own job, and exits when the
wake-on-every-event wait did.

Before it cleans up etcd, a tearing-down Guardian waits for its job's
learner and helper pods to be gone; a rolled-back deployment waits for
its StatefulSet and Deployment too. The wait watches only the job's
owners and their pods (``ApiServer.watch(kind, owner=...)``, DESIGN.md
"A wait wakes for what it waits on"). The claim is that this changes
nothing a simulation can observe: ``EveryEventWaiter`` below runs the
wait as it was, woken by every event of every watched kind, and serves
only as the oracle. Hypothesis generates programs of other jobs'
churn, the job's own pods deleted gracefully, force-deleted and lost
with a crashed node, and the job's StatefulSet and Deployment deleted,
and requires the same exit instant and the same ``cond()`` at exit.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import (
    ContainerSpec,
    Deployment,
    PodSpec,
    PodTemplate,
    RESTART_ALWAYS,
    StatefulSet,
)
from repro.core import layout
from repro.core.guardian import (
    CLUSTER_WAIT_TIMEOUT,
    GUARDIAN_TEARDOWN_RESYNC,
    Guardian,
)
from repro.sim import Kernel

from ..observers import kubernetes

JOB = "job-a"
OTHERS = ("job-b", "job-c", "job-d")
NODES = 3


class Waiter:
    """The Guardian's cluster waits, on a bare cluster."""

    _await_cluster = Guardian._await_cluster
    _await_pods_gone = Guardian._await_pods_gone
    _await_rollback_complete = Guardian._await_rollback_complete
    _workload_owners = Guardian._workload_owners
    _workload_pods = Guardian._workload_pods

    def __init__(self, cluster, job_id):
        self.k8s = cluster.api
        self.kernel = cluster.kernel
        self.job_id = job_id


class EveryEventWaiter(Waiter):
    """The oracle: the wait as it was, one kind-wide watch per watched
    kind, re-checking ``cond()`` on every event of that kind."""

    def _await_cluster(self, cond, watched, resync):
        kinds = list(dict.fromkeys(kind for kind, _owner in watched))
        watches = [self.k8s.watch(kind) for kind in kinds]
        deadline = self.kernel.now + CLUSTER_WAIT_TIMEOUT
        try:
            while not cond() and self.kernel.now < deadline:
                gets = [watch.get() for watch in watches]
                timer = self.kernel.sleep(min(resync, deadline - self.kernel.now))
                yield self.kernel.any_of(gets + [timer])
                timer.cancel()
                for watch, get in zip(watches, gets):
                    if not get.triggered:
                        watch.cancel_get(get)
        finally:
            for watch in watches:
                watch.cancel()
        return cond()


def template(job_id, role, duration):
    def make_workload():
        def workload(ctx):
            yield ctx.kernel.sleep(duration)
            return 0

        return workload

    def spec():
        return PodSpec([ContainerSpec("main", "tiny", workload=make_workload())],
                       restart_policy=RESTART_ALWAYS)

    return PodTemplate(spec, labels={"dlaas-job": job_id, "role": role})


def deploy(api, job_id, learners, duration=1000.0):
    api.create(StatefulSet(layout.learner_set_name(job_id),
                           template(job_id, "learner", duration), learners))
    api.create(Deployment(layout.helper_deployment_name(job_id),
                          template(job_id, "helper", duration), 1))


def teardown(api, job_id):
    """What ``Guardian._teardown`` asks of the cluster."""
    for kind, name in (("StatefulSet", layout.learner_set_name(job_id)),
                       ("Deployment", layout.helper_deployment_name(job_id))):
        owner = api.get_or_none(kind, name)
        if owner is not None:
            owner.deletion_requested = True
            api.update(owner)


def build(seed=5):
    kernel = Kernel(seed=seed)
    cluster = kubernetes(kernel)
    cluster.registry.register("tiny", 10)
    for i in range(NODES):
        cluster.add_node(f"node-{i}")
    return kernel, cluster


# ----------------------------------------------------------------------
# Programs
# ----------------------------------------------------------------------

DELAYS = st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.5, 1.0, 2.5, 4.0])
OTHER = st.sampled_from(OTHERS)
OPS = st.one_of(
    st.tuples(st.just("deploy_other"), OTHER, st.integers(0, 3),
              st.sampled_from([0.3, 2.0, 1000.0])),
    st.tuples(st.just("scale_other"), OTHER, st.integers(0, 3)),
    st.tuples(st.just("teardown_other"), OTHER),
    st.tuples(st.just("delete_other_pod"), st.integers(0, 7), st.booleans()),
    st.tuples(st.just("delete_own_pod"), st.integers(0, 3), st.booleans()),
    st.tuples(st.just("crash_node"), st.integers(0, NODES - 1)),
    st.tuples(st.just("restart_node"), st.integers(0, NODES - 1)),
    st.tuples(st.just("teardown_own")),
)
PROGRAMS = st.lists(st.tuples(DELAYS, OPS), min_size=1, max_size=14)


def apply(cluster, op):
    api = cluster.api
    verb = op[0]
    if verb == "deploy_other":
        if not api.exists("StatefulSet", layout.learner_set_name(op[1])) \
                and not api.exists("Deployment",
                                   layout.helper_deployment_name(op[1])):
            deploy(api, op[1], op[2], duration=op[3])
    elif verb == "scale_other":
        sset = api.get_or_none("StatefulSet", layout.learner_set_name(op[1]))
        if sset is not None and not sset.deletion_requested:
            sset.replicas = op[2]
            api.update(sset)
    elif verb == "teardown_other":
        teardown(api, op[1])
    elif verb in ("delete_other_pod", "delete_own_pod"):
        own = verb == "delete_own_pod"
        pods = [pod for pod in api.list("Pod")
                if (pod.metadata.labels.get("dlaas-job") == JOB) == own]
        if pods:
            pod = pods[op[1] % len(pods)]
            cluster.kubectl.delete_pod(pod.metadata.name, force=op[2])
    elif verb == "crash_node":
        cluster.crash_node(f"node-{op[1]}")
    elif verb == "restart_node":
        cluster.restart_node(f"node-{op[1]}")
    else:
        teardown(api, JOB)


def run(waiter_class, wait, learners, start_at, program):
    kernel, cluster = build()
    deploy(cluster.api, JOB, learners)
    deploy(cluster.api, OTHERS[0], 2, duration=0.7)
    cluster.start()
    waiter = waiter_class(cluster, JOB)
    exits = []

    def play():
        for delay, op in program:
            yield kernel.sleep(delay)
            apply(cluster, op)

    def waiting():
        yield kernel.sleep(start_at)
        held = yield from getattr(waiter, wait)()
        exits.append((kernel.now, held))

    kernel.spawn(play(), name="program")
    kernel.spawn(waiting(), name="wait")
    kernel.run(until=sum(delay for delay, _op in program) + start_at + 70.0)
    return exits, cluster.api.watcher_count()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["_await_pods_gone", "_await_rollback_complete"]),
       st.integers(0, 3), DELAYS, PROGRAMS)
def test_scoped_wait_exits_when_the_every_event_wait_did(wait, learners,
                                                         start_at, program):
    exits, watchers = run(Waiter, wait, learners, start_at, program)
    want_exits, want_watchers = run(EveryEventWaiter, wait, learners,
                                    start_at, program)
    assert exits == want_exits
    assert len(exits) == 1
    assert watchers == want_watchers


# ----------------------------------------------------------------------
# Cost
# ----------------------------------------------------------------------


def logged(generator, kernel, resumes):
    """Drive ``generator``, logging the instant of every resume."""
    value = None
    try:
        while True:
            event = generator.send(value)
            value = yield event
            resumes.append(kernel.now)
    except StopIteration as stop:
        return stop.value


def test_teardown_wait_is_resumed_by_its_own_pods_and_its_resync():
    kernel, cluster = build()
    api = cluster.api
    for i in range(NODES, 10):
        cluster.add_node(f"node-{i}")
    deploy(api, JOB, 2)
    for i in range(50):
        api.create(StatefulSet(f"other-{i}",
                               template(f"other-{i}", "learner", 1000.0), 1))
    cluster.start()
    kernel.run(until=3.0)
    assert len(api.list("Pod")) == 53

    def churning():
        # Every 20 ms another job's learner is deleted and its set
        # makes a new one: Pod events all the time, none of this job's.
        for step in range(10**6):
            yield kernel.sleep(0.02)
            pod = api.get_or_none("Pod", f"other-{step % 50}-0")
            if pod is not None and not pod.deletion_requested:
                cluster.kubectl.delete_pod(pod.metadata.name)

    kernel.spawn(churning(), name="churn")
    churn = api.watch("Pod")
    resumes, exits = [], []

    def waiting():
        held = yield from logged(Waiter(cluster, JOB)._await_pods_gone(),
                                 kernel, resumes)
        exits.append((kernel.now, held))

    kernel.spawn(waiting(), name="wait")
    kernel.run(until=13.0)
    # Ten seconds of other jobs' churn: the wait was resumed only by its
    # resync timer, every GUARDIAN_TEARDOWN_RESYNC seconds.
    assert len(churn) > 500
    assert exits == []
    assert len(resumes) == 10.0 / GUARDIAN_TEARDOWN_RESYNC
    ticks = [3.0] + resumes
    assert all(abs(later - earlier - GUARDIAN_TEARDOWN_RESYNC) < 1e-9
               for earlier, later in zip(ticks, ticks[1:]))
    churn.cancel()
    teardown(api, JOB)
    kernel.run(until=30.0)
    assert exits and exits[0][1] is True
    assert not Waiter(cluster, JOB)._workload_pods()
