"""The fault vocabulary: every fault a soak, bench or example injects.

The paper's Fig. 4 methodology: "manually crashing various components
(using the kubectl tool of K8S) and measuring time taken for the
component to restart." A :class:`Fault` names one injection, :func:`fire`
applies it, and :data:`KINDS` is the one table of what each kind
breaks and how it comes back: crashes (pods through kubectl, containers
in place, a machine, an etcd or MongoDB member) and the gray faults the
paper never tested, which degrade a target while its health probe
passes. Gray faults are recorded by ``platform.faults.inject_gray``;
crashes record nothing of their own. Recovery is read from the
``component-ready`` trace events (:func:`recovery_time`).

The learner's ``hang``/``fail`` (``platform.faults.arm``) and
:meth:`ComponentCrasher.crash_guardian_at` stay outside the table: they
fire at a step the workload reaches, not when they are called.
"""

from dataclasses import dataclass

from ..cluster import NotFoundError
from . import layout
from .errors import DlaasError
from .guardian import DEPLOY_STEPS


@dataclass(frozen=True)
class Fault:
    """One injection. ``target`` names what breaks (per kind, see
    :data:`KINDS`); ``amount`` is a gray fault's added latency, stall or
    probability; after ``duration`` seconds a gray fault reverts and a
    crashed machine or member restarts (None: it stays broken)."""

    kind: str
    target: object = None
    amount: float = None
    duration: float = None


def fire(platform, fault):
    """Inject ``fault`` now and return the name of what it hit.
    ``DlaasError`` when the target is absent (a finished job, a pod
    between incarnations, an unknown id) or an etcd crash would cost
    the quorum."""
    return KINDS[fault.kind](platform, fault)


def recovery_time(platform, component, crash_time, **match):
    """Seconds from ``crash_time`` to the component's next ready event.

    ``component`` is the tracer component name (``api``, ``lcm``,
    ``guardian``, ``controller``, ``learner-<n>``); extra kwargs filter
    on event fields (e.g. ``job=...``).
    """
    for record in platform.tracer.query(component=component,
                                        kind="component-ready",
                                        since=crash_time, **match):
        if record.time > crash_time:
            return record.time - crash_time
    return None


def _live_pod(platform, selector):
    pods = [p for p in platform.k8s.kubectl.get_pods(selector=selector)
            if not p.is_terminal() and not p.deletion_requested]
    if not pods:
        raise DlaasError(f"no live pod for {selector}")
    return pods[0]


def _learner_pod(platform, job_id, ordinal=0):
    name = layout.learner_pod_name(job_id, ordinal)
    try:
        return platform.k8s.kubectl.get_pod(name)
    except NotFoundError:
        raise DlaasError(f"no pod {name}") from None


def _member(members, member_id):
    if member_id not in members:
        raise DlaasError(f"no member {member_id!r}")
    return members[member_id]


def _restart_after(platform, fault, restart):
    if fault.duration is not None:
        platform.kernel.call_later(fault.duration, restart)


def _delete(platform, pod):
    platform.k8s.kubectl.delete_pod(pod.metadata.name, force=True)
    return pod.metadata.name


def _crash_service(app):
    return lambda platform, fault: _delete(
        platform, _live_pod(platform, {"app": app}))


def _crash_job_pod(role):
    return lambda platform, fault: _delete(
        platform, _live_pod(platform, {"dlaas-job": fault.target, "role": role}))


def _crash_learner_pod(platform, fault):
    job_id, ordinal = fault.target
    return _delete(platform, _learner_pod(platform, job_id, ordinal))


def _crash_controller_container(platform, fault):
    pod = _live_pod(platform, {"dlaas-job": fault.target, "role": "helper"})
    platform.k8s.kubectl.crash_container(pod.metadata.name, "controller")
    return pod.metadata.name


def _crash_learner_container(platform, fault):
    pod = _learner_pod(platform, fault.target)
    kubelet = platform.k8s.kubelet_for(pod.node_name)
    if kubelet is None or not kubelet.alive:
        raise DlaasError(f"pod {pod.metadata.name} is on no live node")
    platform.k8s.kubectl.crash_container(pod.metadata.name, "learner")
    return pod.metadata.name


def _crash_node(platform, fault):
    pod = _learner_pod(platform, fault.target)
    name = pod.node_name
    if name is None:
        raise DlaasError(f"pod {pod.metadata.name} is on no node")
    platform.k8s.crash_node(name)
    _restart_after(platform, fault, lambda: platform.k8s.restart_node(name))
    return name


def _crash_etcd_member(platform, fault):
    cluster = platform.etcd
    node = _member(cluster.nodes, fault.target)
    majority = len(cluster.node_ids) // 2 + 1
    if not node.alive or cluster.alive_count() - 1 < majority:
        raise DlaasError(f"crashing {fault.target} would cost the quorum")
    cluster.crash(fault.target)
    _restart_after(platform, fault, lambda: cluster.restart(fault.target))
    return fault.target


def _crash_mongo_member(platform, fault):
    member = _member(platform.mongo.members, fault.target)
    member.crash()
    _restart_after(platform, fault, member.restart)
    return fault.target


def _degrade(recorded_as, impairment):
    """Stack one impairment layer on the target endpoint; the revert
    removes exactly that layer, so overlapping injections unwind in
    any order."""

    def inject(platform, fault):
        network, layer = platform.network, []
        platform.faults.inject_gray(
            fault.target, recorded_as,
            apply=lambda: layer.append(network.degrade(
                fault.target, **{impairment: fault.amount})),
            revert=lambda: network.restore(fault.target, layer.pop()),
            duration=fault.duration)
        return fault.target

    return inject


def _oneway(platform, fault):
    src, dst = fault.target
    network = platform.network
    platform.faults.inject_gray(
        dst, "partition",
        apply=lambda: network.partition_oneway(src, dst),
        revert=lambda: network.heal_oneway(src, dst),
        duration=fault.duration, reason=f"oneway:{src}")
    return dst


def _disk_stall(platform, fault):
    """Every write on an etcd node or Mongo member hangs ``amount`` s
    in "fsync". Keep it under the store's deadline (Raft's 0.06 s RPC
    timeout, the replica set's 0.25 s replicate deadline), or the
    stall turns into visible errors. Overlapping stalls on one holder
    add up; each revert subtracts only its own delay."""
    holders = {**platform.etcd.nodes, **platform.mongo.members}
    holder = _member(holders, fault.target)
    layers = platform.faults.stall_layers

    def apply():
        layers.setdefault(holder, []).append(fault.amount)
        holder.disk_stall = sum(layers[holder])

    def revert():
        stalls = layers[holder]
        stalls.remove(fault.amount)
        holder.disk_stall = sum(stalls)
        if not stalls:
            del layers[holder]

    platform.faults.inject_gray(fault.target, "disk-stall", apply=apply,
                                revert=revert, duration=fault.duration)
    return fault.target


# Each kind, its target and what it does. Pod crashes go through
# kubectl (the K8S controllers recreate the pod); container crashes
# through the kubelet (the restart policy applies).
KINDS = {
    "api": _crash_service("api"),               # any live API pod
    "lcm": _crash_service("lcm"),               # any live LCM pod
    "guardian": _crash_job_pod("guardian"),     # job id
    "helper": _crash_job_pod("helper"),         # job id
    "learner-pod": _crash_learner_pod,          # (job id, ordinal)
    "controller-container": _crash_controller_container,  # job id
    "learner-container": _crash_learner_container,  # job id: learner 0
    "node": _crash_node,                        # job id: learner 0's machine
    "etcd-member": _crash_etcd_member,          # etcd node id
    "mongo-member": _crash_mongo_member,        # Mongo member id
    "slow": _degrade("slow", "extra_latency"),  # address; amount s
    "oneway": _oneway,                          # (src, dst) addresses
    "loss": _degrade("loss", "loss"),           # address; probability
    "duplicate": _degrade("duplicate", "duplicate"),  # address; probability
    "disk-stall": _disk_stall,                  # etcd or Mongo id; amount s
}


class ComponentCrasher:
    """perfbench's crash surface, each method one :func:`fire`; and the
    Guardian's step trigger."""

    def __init__(self, platform):
        self.platform = platform

    def _fire(self, fault):
        return self.platform.kernel.now, fire(self.platform, fault)

    def crash_api(self):
        """Kill one API pod; returns (crash_time, pod_name)."""
        return self._fire(Fault("api"))

    def crash_lcm(self):
        return self._fire(Fault("lcm"))

    def crash_guardian(self, job_id):
        return self._fire(Fault("guardian", job_id))

    def crash_helper(self, job_id):
        return self._fire(Fault("helper", job_id))

    def crash_learner(self, job_id):
        return self._fire(Fault("learner-pod", (job_id, 0)))

    def crash_learner_container(self, job_id):
        return self._fire(Fault("learner-container", job_id))

    def recovery_time(self, component, crash_time, **match):
        return recovery_time(self.platform, component, crash_time, **match)

    def crash_guardian_at(self, job_id, step, attempt):
        """Kill the Guardian's container once deployment attempt
        ``attempt`` (read from the etcd leader) has created deploy step
        ``step``'s resource (1-based, ``DEPLOY_STEPS`` order); the K8S
        Job retries the failed pod (§III.d). Arm it before the step."""
        platform = self.platform
        _logged_as, kind, name_of = DEPLOY_STEPS[step - 1]
        watch = platform.k8s.api.watch(kind, owner=(kind, name_of(job_id)))
        key = layout.guardian_attempt_key(job_id)

        def kill():
            current = 0
            try:
                while current < attempt:
                    event_type, _resource = yield watch.get()
                    if event_type == "ADDED":
                        current, _revision = (platform.etcd.leader()
                                              .state_machine.get_with_revision(key))
            finally:
                watch.cancel()
            if current == attempt:
                pod = _live_pod(platform, {"dlaas-job": job_id, "role": "guardian"})
                platform.k8s.kubectl.crash_container(pod.metadata.name, "guardian")

        platform.kernel.spawn(kill(), name=f"crash-guardian:{job_id}")


class GrayFailureInjector:
    """perfbench's gray-fault surface, each firing method one
    :func:`fire`, and the target discovery it uses."""

    def __init__(self, platform):
        self.platform = platform

    def mongo_secondaries(self):
        primary = self.platform.mongo.primary_id()
        return [m for m in self.platform.mongo.member_ids
                if m != primary and self.platform.mongo.member(m).alive]

    def etcd_followers(self):
        leader = self.platform.etcd.leader()
        leader_id = leader.node_id if leader is not None else None
        return [n for n in self.platform.etcd.node_ids if n != leader_id]

    def slow_endpoint(self, address, extra_latency, duration=None):
        return fire(self.platform, Fault("slow", address, extra_latency, duration))

    def disk_stall_etcd(self, node_id, delay, duration=None):
        return fire(self.platform, Fault("disk-stall", node_id, delay, duration))
