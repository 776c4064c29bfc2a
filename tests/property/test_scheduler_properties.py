"""Property test: the memoising, parking scheduler against brute force.

Two identical worlds receive the same random operations: pods of mixed
shapes, gangs (some fit, some fit partly and roll back), passes,
releases, nodes going NotReady and back, clock advances short and
long. One world runs the real ``Scheduler``; the other a reference
that asks ``_pick_node`` about every single pod and reports every
failed pod on every pass.
After every operation they must agree on bindings and allocations; at
the end on the ``Scheduled`` event sequence, and the real scheduler's
``FailedScheduling`` log must be the reference's with the repeats of a
still-parked pod inside one report interval taken out.
"""

from hypothesis import given, settings, strategies as st

from repro.cluster import ContainerSpec, Pod, PodSpec, RESTART_NEVER
from repro.cluster.apiserver import ApiServer
from repro.cluster.kubelet import release_pod_resources
from repro.cluster.resources.node import NOT_READY, READY, Node, NodeResources
from repro.cluster.scheduler import UNSCHEDULABLE_REPORT_INTERVAL, Scheduler
from repro.sim import Kernel, Tracer

from .. import observers


class BruteForceScheduler(Scheduler):
    """No memo, no parking, no quiet pass: every pod gets its own node
    scan and every failure its report."""

    def _quiet(self):
        return False

    def _find_node(self, pod, nodes, no_room, tentative=False):
        return self._pick_node(pod, nodes)

    def _report_unschedulable(self, pod, message):
        self.parked.clear()
        super()._report_unschedulable(pod, message)


def once_per_interval(failed):
    """What parking leaves of an every-pass ``FailedScheduling`` log.
    Pod names are unique in a ``World`` and a pod that bound or was
    deleted never fails again, so a repeat of a name is a pod still
    parked."""
    reported, kept = {}, []
    for event in failed:
        time, name, _reason = event
        if (name not in reported
                or time - reported[name] >= UNSCHEDULABLE_REPORT_INTERVAL):
            reported[name] = time
            kept.append(event)
    return kept


GPU_TYPES = (None, "k80", "v100")
ZONES = (None, "a", "b")
CPUS = (100, 4000, 9000)  # nodes have 16000: CPU binds before GPUs sometimes

node_specs = st.lists(
    st.tuples(st.integers(1, 4), st.sampled_from(GPU_TYPES[1:]),
              st.sampled_from(ZONES[1:])),
    min_size=1, max_size=4)
request = st.tuples(st.integers(0, 3), st.sampled_from(CPUS),
                    st.sampled_from(GPU_TYPES), st.sampled_from(ZONES))
# Each example draws from a few request kinds only, so shapes repeat
# within a pass (that is what the memo feeds on) and a gang's members
# often share a shape with the plain pods queued behind it.
palettes = st.lists(request, min_size=1, max_size=3)
kind = st.integers(0, 2)
operations = st.lists(st.one_of(
    st.tuples(st.just("pods"), kind, st.integers(1, 6)),
    st.tuples(st.just("gang"), st.lists(kind, min_size=2, max_size=4)),
    st.tuples(st.just("pass")),
    st.tuples(st.just("pass")),
    st.tuples(st.just("release"), st.integers(0, 50)),
    st.tuples(st.just("not_ready"), st.integers(0, 3), st.booleans()),
    st.tuples(st.just("strategy"), st.sampled_from(Scheduler.STRATEGIES)),
    # A pass interval, a third of the report interval (three in a row
    # land exactly on it), and past it.
    st.tuples(st.just("tick"), st.sampled_from(
        (0.1, 0.1, UNSCHEDULABLE_REPORT_INTERVAL / 3,
         UNSCHEDULABLE_REPORT_INTERVAL + 0.1))),
), min_size=4, max_size=40)


class World:
    def __init__(self, scheduler_class, nodes, palette):
        self.palette = palette
        self.kernel = Kernel(seed=1)
        self.api = ApiServer(self.kernel, Tracer(self.kernel))
        self.scheduler = observers.scheduler(self.api, scheduler_class)
        for i, (gpus, gpu_type, zone) in enumerate(nodes):
            self.api.create(Node(f"node-{i}",
                                 NodeResources(gpus=gpus, gpu_type=gpu_type),
                                 labels={"zone": zone}))
        self.made = 0

    def _create(self, kind, gang=None, gang_size=0):
        gpus, cpu, gpu_type, zone = self.palette[kind % len(self.palette)]
        spec = PodSpec(
            containers=[ContainerSpec("c", "img", gpus=gpus, cpu_millicores=cpu)],
            restart_policy=RESTART_NEVER, gpu_type=gpu_type,
            node_selector={"zone": zone} if zone else None,
            gang=gang, gang_size=gang_size)
        self.api.create(Pod(f"pod-{self.made}", spec))
        self.made += 1

    def apply(self, operation):
        verb = operation[0]
        if verb == "pods":
            for _ in range(operation[2]):
                self._create(operation[1])
        elif verb == "gang":
            gang = f"gang-{self.made}"
            for member in operation[1]:
                self._create(member, gang=gang, gang_size=len(operation[1]))
        elif verb == "pass":
            self.scheduler.schedule_once()
        elif verb == "release":
            bound = [p for p in self.api.list("Pod") if p.node_name]
            if bound:
                self._remove(bound[operation[1] % len(bound)])
        elif verb == "not_ready":
            nodes = self.api.list("Node")
            nodes[operation[1] % len(nodes)].condition = (
                NOT_READY if operation[2] else READY)
        elif verb == "strategy":
            self.scheduler.strategy = operation[1]
        elif verb == "tick":
            self.kernel.run(until=self.kernel.now + operation[1])

    def _remove(self, pod):
        release_pod_resources(self.api, pod)
        self.api.delete("Pod", pod.metadata.name)

    def bindings(self):
        return {p.metadata.name: p.node_name for p in self.api.list("Pod")}

    def decisions(self):
        return (self.bindings(),
                [(n.allocated_gpus, n.allocated_cpu, n.allocated_memory)
                 for n in self.api.list("Node")])

    def event_log(self, failed):
        """The ``FailedScheduling`` events, or the others (``Scheduled``)."""
        return [(e.time, e.name, e.reason)
                for e in observers.k8s_events(self.api)
                if (e.reason == "FailedScheduling") == failed]


class TestMemoisedSchedulerEqualsBruteForce:
    @settings(max_examples=200)
    @given(node_specs, palettes, operations)
    def test_same_bindings_and_same_events(self, nodes, palette, ops):
        real = World(Scheduler, nodes, palette)
        reference = World(BruteForceScheduler, nodes, palette)
        for operation in ops + [("pass",)]:
            real.apply(operation)
            reference.apply(operation)
            assert real.decisions() == reference.decisions()
            assert len(real.scheduler.parked) <= len(
                real.api.list("Pod", unscheduled=True))
        assert real.event_log(failed=False) == reference.event_log(failed=False)
        assert real.event_log(failed=True) == once_per_interval(
            reference.event_log(failed=True))
