"""A scheduler pass that cannot bind does nothing, and costs the nodes.

A pass that bound nothing and parked every pod it tried leaves a
fingerprint: the API server's unscheduled version and every node's
readiness and allocation. While both stand and no parked pod's 30 s
re-report is due, the next pass would try the same pods on the same
nodes, fail the same way and stay silent, so it returns at once
(DESIGN.md "A wait wakes for what it waits on"). The claim is that
this changes nothing a simulation can observe. ``FullPassScheduler``
below runs every pass in full and serves only as the oracle:
hypothesis generates programs of pods (plain and gangs, short-lived and
long) created and deleted, nodes crashing and restarting, and runs each
on both, requiring the same bindings and the same cluster events,
``FailedScheduling`` re-reports included.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import (
    ContainerSpec,
    Pod,
    PodSpec,
    RESTART_NEVER,
)
from repro.cluster.scheduler import UNSCHEDULABLE_REPORT_INTERVAL, Scheduler
from repro.sim import Kernel

from .. import observers
from ..observers import k8s_events, kubernetes

NODE_GPUS = (2, 4)


class FullPassScheduler(Scheduler):
    """The oracle: no pass is ever quiet."""

    def _quiet(self):
        return False


def pod_spec(gpus, duration, outcome, gang=None, gang_size=0):
    def workload(ctx):
        yield ctx.kernel.sleep(duration)
        return outcome

    return PodSpec([ContainerSpec("main", "tiny", workload=workload, gpus=gpus)],
                   restart_policy=RESTART_NEVER, gang=gang, gang_size=gang_size)


def build(scheduler_class, seed=11):
    kernel = Kernel(seed=seed)
    cluster = kubernetes(kernel)
    cluster.scheduler = observers.scheduler(cluster.api, scheduler_class)
    cluster.registry.register("tiny", 10)
    for i, gpus in enumerate(NODE_GPUS):
        cluster.add_node(f"node-{i}", gpus=gpus)
    return kernel, cluster


# ----------------------------------------------------------------------
# Programs
# ----------------------------------------------------------------------

DELAYS = st.sampled_from([0.0, 0.05, 0.1, 0.3, 1.0, 4.0, 12.0, 29.95, 30.0])
GPUS = st.integers(0, 4)
DURATIONS = st.sampled_from([0.2, 3.0, 40.0, 1000.0])
OUTCOMES = st.sampled_from([0, 1])
OPS = st.one_of(
    st.tuples(st.just("pod"), GPUS, DURATIONS, OUTCOMES),
    st.tuples(st.just("pod"), GPUS, DURATIONS, OUTCOMES),
    # A gang of ``size`` pods of which ``present`` are created now.
    st.tuples(st.just("gang"), st.integers(1, 3), st.integers(2, 3),
              st.integers(1, 3), DURATIONS),
    st.tuples(st.just("delete_pod"), st.integers(0, 9), st.booleans()),
    st.tuples(st.just("crash_node"), st.integers(0, len(NODE_GPUS) - 1)),
    st.tuples(st.just("restart_node"), st.integers(0, len(NODE_GPUS) - 1)),
)
PROGRAMS = st.lists(st.tuples(DELAYS, OPS), min_size=1, max_size=14)


def apply(cluster, index, op):
    api = cluster.api
    verb = op[0]
    if verb == "pod":
        gpus, duration, outcome = op[1:]
        api.create(Pod(f"p-{index}", pod_spec(gpus, duration, outcome)))
    elif verb == "gang":
        gpus, size, present, duration = op[1:]
        for member in range(min(size, present)):
            api.create(Pod(f"g-{index}-{member}",
                           pod_spec(gpus, duration, 0, f"gang-{index}", size)))
    elif verb == "delete_pod":
        pods = [pod for pod in api.list("Pod") if not pod.deletion_requested]
        if pods:
            pod = pods[op[1] % len(pods)]
            cluster.kubectl.delete_pod(pod.metadata.name, force=op[2])
    elif verb == "crash_node":
        cluster.crash_node(f"node-{op[1]}")
    else:
        cluster.restart_node(f"node-{op[1]}")


def run(scheduler_class, program):
    kernel, cluster = build(scheduler_class)
    cluster.start()

    def play():
        for index, (delay, op) in enumerate(program):
            yield kernel.sleep(delay)
            apply(cluster, index, op)

    kernel.spawn(play(), name="program")
    kernel.run(until=sum(delay for delay, _op in program)
               + 2 * UNSCHEDULABLE_REPORT_INTERVAL + 5.0)
    events = [(e.time, e.kind, e.name, e.reason)
              for e in k8s_events(cluster.api)]
    pods = sorted((p.metadata.name, p.phase, p.node_name)
                  for p in cluster.api.list("Pod"))
    return events, pods, kernel.events_processed


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(PROGRAMS)
def test_quiet_passes_match_full_passes(program):
    events, pods, processed = run(Scheduler, program)
    want_events, want_pods, want_processed = run(FullPassScheduler, program)
    assert events == want_events
    assert pods == want_pods
    assert processed == want_processed


# ----------------------------------------------------------------------
# Cost
# ----------------------------------------------------------------------


class CountingScheduler(Scheduler):
    """Logs the instant of every ``_pick_node`` call."""

    def __init__(self, *args):
        super().__init__(*args)
        self.picks = []

    def _pick_node(self, pod, nodes):
        self.picks.append(self.kernel.now)
        return super()._pick_node(pod, nodes)


def test_parked_pods_cost_no_node_scans_until_something_changes():
    kernel, cluster = build(CountingScheduler)
    api, scheduler = cluster.api, cluster.scheduler
    # Fill both nodes, then park 100 pods that need a GPU.
    api.create(Pod("holder-0", pod_spec(2, 1000.0, 0)))
    api.create(Pod("holder-1", pod_spec(4, 1000.0, 0)))
    cluster.start()
    kernel.run(until=1.0)
    assert all(api.get("Pod", f"holder-{i}").node_name for i in range(2))
    for i in range(100):
        api.create(Pod(f"waiting-{i}", pod_spec(1, 1000.0, 0)))
    kernel.run(until=1.15)
    parked_at = kernel.now
    assert len(scheduler.parked) == 100
    picks = len(scheduler.picks)
    # Ten quiet seconds: a hundred passes, not one node scan.
    kernel.run(until=parked_at + 10.0)
    assert len(scheduler.picks) == picks
    # The re-report falls due: one full pass (the memo makes it one scan
    # for the one shape) re-reports all hundred, then quiet again.
    failed = [e for e in k8s_events(api) if e.reason == "FailedScheduling"]
    assert len(failed) == 100
    kernel.run(until=parked_at + UNSCHEDULABLE_REPORT_INTERVAL + 5.0)
    failed = [e for e in k8s_events(api) if e.reason == "FailedScheduling"]
    assert len(failed) == 200
    assert len(scheduler.picks) == picks + 1
    # Freed capacity is in-memory (Node.release): the next pass binds.
    cluster.kubectl.delete_pod("holder-0", force=True)
    kernel.run(until=kernel.now + 0.2)
    assert len(scheduler.picks) > picks + 1
    bound = [p for p in api.list("Pod")
             if p.metadata.name.startswith("waiting-") and p.node_name]
    assert len(bound) == 2
