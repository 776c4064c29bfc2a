"""Controllers and kubelets visit what changed, and do what full scans did.

The Job, StatefulSet and Deployment controllers drain an API-server
watch of their owner kind and of ``Pod`` at the start of each pass and
reconcile only the owners written, or whose pods were written, since
the last pass; a kubelet's sync runs only when one of its node's pods
was written or its own pod workers changed (DESIGN.md "A pass visits
what changed"). The claim is that this changes nothing a simulation can
observe. ``FullScanCluster`` below runs the passes as they were, every
owner and every node on every tick, and serves only as the oracle:
hypothesis generates programs of creating (also before the cluster
starts), scaling and deleting workloads, failing pod workloads,
``kubectl delete pod`` (also ``--force``) and node crashes and
restarts, and runs each on both.
"""

import sys

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import (
    ContainerSpec,
    Deployment,
    Job,
    KubernetesCluster,
    PodSpec,
    PodTemplate,
    RESTART_ALWAYS,
    RESTART_NEVER,
    RESTART_ON_FAILURE,
    StatefulSet,
)
from repro.cluster.apiserver import ApiServer
from repro.cluster.controllers import (
    Controller,
    DeploymentController,
    JobController,
    StatefulSetController,
)
from repro.cluster.kubelet import Kubelet
from repro.sim import Kernel, Tracer
from repro.sim.periodic import Polling

from ..observers import k8s_events, kubernetes

NODES = 2
PREFIX = {"StatefulSet": "ss", "Deployment": "dp", "Job": "jb"}


class FullScan:
    """The oracle pass: every owner of the kind on every tick, no watch."""

    def start(self):
        return Polling.start(self)

    def stop(self):
        return Polling.stop(self)

    def reconcile(self):
        for owner in self.api.list(self.kind):
            self.reconcile_owner(owner)


class FullScanJobs(FullScan, JobController):
    pass


class FullScanSets(FullScan, StatefulSetController):
    pass


class FullScanDeployments(FullScan, DeploymentController):
    pass


class FullScanCluster(KubernetesCluster):
    """Every workload-controller pass visits every owner and every
    kubelet sync lists its node's pods."""

    def __init__(self, kernel, *args):
        super().__init__(kernel, *args)
        self.controllers[:3] = [
            cls(kernel, self.api)
            for cls in (FullScanJobs, FullScanSets, FullScanDeployments)]

    def pods_changed(self, node_name):
        return True


def template(duration, outcome, policy):
    """Pods that run ``duration`` simulated seconds, then exit with
    ``outcome`` (an exit code, or ``"raise"``)."""

    def make_workload():
        def workload(ctx):
            yield ctx.kernel.sleep(duration)
            if outcome == "raise":
                raise RuntimeError("workload failed")
            return outcome

        return workload

    def spec():
        return PodSpec([ContainerSpec("main", "tiny", workload=make_workload())],
                       restart_policy=policy)

    return PodTemplate(spec)


def build(cluster_class, seed=7):
    kernel = Kernel(seed=seed)
    cluster = kubernetes(kernel, cluster_class=cluster_class)
    cluster.registry.register("tiny", 10)
    for i in range(NODES):
        cluster.add_node(f"node-{i}")
    return kernel, cluster


# ----------------------------------------------------------------------
# Programs
# ----------------------------------------------------------------------

KINDS = st.sampled_from(sorted(PREFIX))
INDEX = st.integers(0, 1)
DELAYS = st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 1.0, 2.5, 4.0])
DURATIONS = st.sampled_from([0.1, 0.5, 2.0, 1000.0])
OUTCOMES = st.sampled_from([0, 1, "raise"])
POLICIES = st.sampled_from([RESTART_ALWAYS, RESTART_ON_FAILURE, RESTART_NEVER])

CREATE = st.tuples(st.just("create"), KINDS, INDEX, st.integers(0, 3),
                   DURATIONS, OUTCOMES, POLICIES)
OPS = st.one_of(
    CREATE,
    CREATE,
    st.tuples(st.just("scale"), st.sampled_from(["StatefulSet", "Deployment"]),
              INDEX, st.integers(0, 3)),
    st.tuples(st.just("delete"), KINDS, INDEX),
    st.tuples(st.just("delete_pod"), st.integers(0, 7), st.booleans()),
    st.tuples(st.just("crash_node"), st.integers(0, NODES - 1)),
    st.tuples(st.just("restart_node"), st.integers(0, NODES - 1)),
    # Down for less than the node controller's eviction timeout, or more.
    st.tuples(st.just("bounce_node"), st.integers(0, NODES - 1),
              st.sampled_from([0.0, 0.3, 1.0, 5.0])),
)
PROGRAMS = st.lists(st.tuples(DELAYS, OPS), min_size=2, max_size=16)
# Workloads that exist before the cluster starts: the first passes see
# them only through the relist at start.
BEFORE_START = st.lists(CREATE, max_size=3)


def bounce(cluster, node_name, downtime):
    cluster.crash_node(node_name)
    yield cluster.kernel.sleep(downtime)
    cluster.restart_node(node_name)


def apply(cluster, op):
    api = cluster.api
    verb = op[0]
    if verb in ("create", "scale", "delete"):
        kind, name = op[1], f"{PREFIX[op[1]]}-{op[2]}"
        owner = api.get_or_none(kind, name)
        if verb == "create" and owner is None:
            count, duration, outcome, policy = op[3:]
            if kind == "Job":
                api.create(Job(name, template(duration, outcome, policy),
                               backoff_limit=count))
            else:
                cls = StatefulSet if kind == "StatefulSet" else Deployment
                api.create(cls(name, template(duration, outcome, policy), count))
        elif verb == "scale" and owner is not None:
            owner.replicas = op[3]
            api.update(owner)
        elif verb == "delete" and owner is not None:
            if kind == "Job":  # as the LCM collects a Guardian's Job
                if owner.active_pod and api.exists("Pod", owner.active_pod):
                    pod = api.get("Pod", owner.active_pod)
                    pod.deletion_requested = True
                    api.update(pod)
                api.delete("Job", name)
            else:
                owner.deletion_requested = True
                api.update(owner)
    elif verb == "delete_pod":
        pods = api.list("Pod")
        if pods:
            pod = pods[op[1] % len(pods)]
            cluster.kubectl.delete_pod(pod.metadata.name, force=op[2])
    elif verb == "crash_node":
        cluster.crash_node(f"node-{op[1]}")
    elif verb == "bounce_node":
        cluster.kernel.spawn(bounce(cluster, f"node-{op[1]}", op[2]),
                             name="bounce")
    else:
        cluster.restart_node(f"node-{op[1]}")


def run(cluster_class, before_start, program):
    kernel, cluster = build(cluster_class)
    for op in before_start:
        apply(cluster, op)
    cluster.start()

    def play():
        for delay, op in program:
            yield kernel.sleep(delay)
            apply(cluster, op)

    kernel.spawn(play(), name="program")
    kernel.run(until=sum(delay for delay, _op in program) + 20.0)
    events = [(e.time, e.kind, e.name, e.reason)
              for e in k8s_events(cluster.api)]
    pods = sorted((p.metadata.name, p.phase, p.node_name, p.deletion_requested)
                  for p in cluster.api.list("Pod"))
    return events, pods, kernel.events_processed


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(BEFORE_START, PROGRAMS)
def test_passes_that_visit_what_changed_match_full_scans(before_start, program):
    events, pods, processed = run(KubernetesCluster, before_start, program)
    want_events, want_pods, want_processed = run(FullScanCluster, before_start,
                                                 program)
    assert events == want_events
    assert pods == want_pods
    assert processed == want_processed


# ----------------------------------------------------------------------
# Cost and failure
# ----------------------------------------------------------------------


def count_pod_lists(api, calls):
    """Record every ``list("Pod", owner=...)`` and ``list("Pod",
    node_name=...)`` a controller or kubelet makes, with the time."""
    plain = api.list

    def counted(kind, *args, **kwargs):
        caller = sys._getframe(1).f_locals.get("self")
        if kind == "Pod" and isinstance(caller, (Controller, Kubelet)):
            for index in ("owner", "node_name"):
                if kwargs.get(index) is not None:
                    calls.append((api.kernel.now, type(caller).__name__, index))
        return plain(kind, *args, **kwargs)

    api.list = counted


def test_quiet_statefulsets_cost_no_pod_lists():
    kernel, cluster = build(KubernetesCluster)
    cluster.start()
    calls = []
    count_pod_lists(cluster.api, calls)
    sets = [StatefulSet(f"ss-{i}", template(1000.0, 0, RESTART_ALWAYS), 1)
            for i in range(50)]
    for sset in sets:
        cluster.api.create(sset)
    kernel.run(until=5.0)
    assert all(pod.phase == "Running" for pod in cluster.api.list("Pod"))
    assert len(cluster.api.list("Pod")) == 50
    # The pods came up through passes that listed each owner's pods.
    assert any(who == "StatefulSetController" for _t, who, _i in calls)
    quiet_from = kernel.now
    kernel.run(until=quiet_from + 10.0)
    assert [call for call in calls if call[0] > quiet_from] == []


class FlakySets(StatefulSetController):
    """Raises once, in the first pass, for ``ss-1``."""

    def __init__(self, kernel, api):
        super().__init__(kernel, api)
        self.visits = []
        self.raised = False

    def reconcile_owner(self, sset):
        self.visits.append((self.kernel.now, sset.metadata.name))
        if sset.metadata.name == "ss-1" and not self.raised:
            self.raised = True
            raise RuntimeError("injected reconcile failure")
        super().reconcile_owner(sset)


def test_owner_that_raised_and_those_after_it_are_visited_next_pass():
    kernel = Kernel(seed=3)
    api = ApiServer(kernel, Tracer(kernel))
    for i in range(3):
        api.create(StatefulSet(f"ss-{i}", template(1000.0, 0, RESTART_ALWAYS), 1))
    controller = FlakySets(kernel, api).start()
    kernel.run(until=0.1)
    assert controller.visits == [(0.0, "ss-0"), (0.0, "ss-1")]
    assert [e.reason for e in k8s_events(api)] == ["PodCreated",
                                                   "ReconcileError"]
    assert [p.metadata.name for p in api.list("Pod")] == ["ss-0-0"]
    kernel.run(until=0.3)
    second = [name for when, name in controller.visits if when == 0.2]
    assert second == ["ss-0", "ss-1", "ss-2"]
    assert sorted(p.metadata.name for p in api.list("Pod")) == [
        "ss-0-0", "ss-1-0", "ss-2-0"]
    # The pods created at 0.2 mark their owners once more; then nothing
    # changes and no pass visits an owner.
    kernel.run(until=1.0)
    assert [name for when, name in controller.visits if when > 0.2] == [
        "ss-1", "ss-2"]
    controller.stop()
    assert api.watcher_count() == 0
