"""Component crash and gray-fault injection for the dependability
experiments.

The paper's Fig. 4 methodology: "manually crashing various components
(using the kubectl tool of K8S) and measuring time taken for the
component to restart." :class:`ComponentCrasher` provides those
crashes; recovery is observed through ``component-ready`` trace events
each component emits when it starts serving again.

:class:`GrayFailureInjector` covers the failure class the paper never
tested — faults that degrade a component *without* failing its health
probe: slow endpoints, asymmetric one-way partitions, probabilistic
packet loss/duplication, and disk stalls on etcd/mongo members. Each
helper maps a platform-level target to the fabric/member primitive and
routes the injection through ``platform.faults`` so the counter
metric, the ``FaultInjected`` event and the bounded injection ring all
record it.
"""

from ..cluster import NotFoundError
from . import layout
from .errors import DlaasError
from .guardian import DEPLOY_STEPS


class ComponentCrasher:
    """kubectl-driven crash injection against a running platform."""

    def __init__(self, platform):
        self.platform = platform
        self.kubectl = platform.k8s.kubectl

    def _one_pod(self, selector, description):
        pods = [p for p in self.kubectl.get_pods(selector=selector)
                if not p.is_terminal() and not p.deletion_requested]
        if not pods:
            raise DlaasError(f"no live pod for {description} ({selector})")
        return pods[0]

    # ------------------------------------------------------------------
    # Fig. 4's five components
    # ------------------------------------------------------------------

    def crash_api(self):
        """Kill one API pod; returns (crash_time, pod_name)."""
        pod = self._one_pod({"app": "api"}, "API")
        when = self.platform.kernel.now
        self.kubectl.delete_pod(pod.metadata.name, force=True)
        return when, pod.metadata.name

    def crash_lcm(self):
        pod = self._one_pod({"app": "lcm"}, "LCM")
        when = self.platform.kernel.now
        self.kubectl.delete_pod(pod.metadata.name, force=True)
        return when, pod.metadata.name

    def crash_guardian(self, job_id):
        pod = self._one_pod({"dlaas-job": job_id, "role": "guardian"},
                            f"guardian of {job_id}")
        when = self.platform.kernel.now
        self.kubectl.delete_pod(pod.metadata.name, force=True)
        return when, pod.metadata.name

    def crash_guardian_at(self, job_id, step, attempt):
        """Kill the Guardian's container once deployment attempt
        ``attempt`` (read from the etcd leader) has created deploy step
        ``step``'s resource (1-based, ``DEPLOY_STEPS`` order); the K8S
        Job retries the failed pod (§III.d). Arm it before the step."""
        _logged_as, kind, name_of = DEPLOY_STEPS[step - 1]
        watch = self.platform.k8s.api.watch(kind, owner=(kind, name_of(job_id)))
        key = layout.guardian_attempt_key(job_id)

        def kill():
            current = 0
            try:
                while current < attempt:
                    event_type, _resource = yield watch.get()
                    if event_type == "ADDED":
                        current, _revision = (self.platform.etcd.leader()
                                              .state_machine.get_with_revision(key))
            finally:
                watch.cancel()
            if current == attempt:
                pod = self._one_pod({"dlaas-job": job_id, "role": "guardian"},
                                    f"guardian of {job_id}")
                self.kubectl.crash_container(pod.metadata.name, "guardian")

        self.platform.kernel.spawn(kill(), name=f"crash-guardian:{job_id}")

    def crash_helper(self, job_id):
        pod = self._one_pod({"dlaas-job": job_id, "role": "helper"},
                            f"helper of {job_id}")
        when = self.platform.kernel.now
        self.kubectl.delete_pod(pod.metadata.name, force=True)
        return when, pod.metadata.name

    def crash_controller_container(self, job_id):
        """In-place controller container crash (restart policy applies)."""
        pod = self._one_pod({"dlaas-job": job_id, "role": "helper"},
                            f"helper of {job_id}")
        when = self.platform.kernel.now
        self.kubectl.crash_container(pod.metadata.name, "controller")
        return when, pod.metadata.name

    def _learner_pod(self, job_id, ordinal=0):
        """A learner's pod; ``DlaasError`` when it is gone (the job
        finished, or the pod is between incarnations)."""
        name = layout.learner_pod_name(job_id, ordinal)
        try:
            return self.kubectl.get_pod(name)
        except NotFoundError:
            raise DlaasError(f"no pod {name}") from None

    def crash_learner(self, job_id, ordinal=0):
        """Kill a learner pod (StatefulSet recreates it by name)."""
        name = self._learner_pod(job_id, ordinal).metadata.name
        when = self.platform.kernel.now
        self.kubectl.delete_pod(name, force=True)
        return when, name

    def crash_learner_container(self, job_id):
        """In-place crash of learner 0's container (kubelet restarts it)."""
        pod = self._learner_pod(job_id)
        kubelet = self.platform.k8s.kubelet_for(pod.node_name)
        if kubelet is None or not kubelet.alive:
            raise DlaasError(f"pod {pod.metadata.name} is on no live node")
        when = self.platform.kernel.now
        self.kubectl.crash_container(pod.metadata.name, "learner")
        return when, pod.metadata.name

    def crash_node_of(self, job_id):
        """Machine failure under learner 0 (paper §III.h)."""
        pod = self._learner_pod(job_id)
        if pod.node_name is None:
            raise DlaasError(f"pod {pod.metadata.name} is on no node")
        when = self.platform.kernel.now
        self.platform.k8s.crash_node(pod.node_name)
        return when, pod.node_name

    # ------------------------------------------------------------------
    # Recovery observation
    # ------------------------------------------------------------------

    def recovery_time(self, component, crash_time, **match):
        """Seconds from ``crash_time`` to the component's next ready event.

        ``component`` is the tracer component name (``api``, ``lcm``,
        ``guardian``, ``controller``, ``learner-<n>``); extra kwargs
        filter on event fields (e.g. ``job=...``).
        """
        for record in self.platform.tracer.query(component=component,
                                                 kind="component-ready",
                                                 since=crash_time, **match):
            if record.time > crash_time:
                return record.time - crash_time
        return None


class GrayFailureInjector:
    """Gray faults against a running platform: degrade, don't crash.

    Every injection goes through ``platform.faults.inject_gray`` so the
    ``fault_injected_total{target,kind}`` counter, the ``FaultInjected``
    Warning event and the bounded injection ring record it; with a
    ``duration`` the fault reverts itself on schedule. Targets keep
    passing their health probes throughout — detection is the
    differential detector's job, not the liveness probes'.
    """

    def __init__(self, platform):
        self.platform = platform
        self.network = platform.network
        self.faults = platform.faults
        # Stacked disk stalls: holder (member/node) -> list of active
        # delays; the effective stall is their sum, recomputed on every
        # apply/revert so overlapping windows unwind cleanly.
        self._stall_layers = {}

    # ------------------------------------------------------------------
    # Target discovery
    # ------------------------------------------------------------------

    def api_endpoints(self):
        """Live API replica addresses, balancer order."""
        return list(self.platform.api_balancer.endpoints)

    def mongo_secondaries(self):
        primary = self.platform.mongo.primary_id()
        return [m for m in self.platform.mongo.member_ids
                if m != primary and self.platform.mongo.member(m).alive]

    def etcd_followers(self):
        leader = self.platform.etcd.leader()
        leader_id = leader.node_id if leader is not None else None
        return [n for n in self.platform.etcd.node_ids if n != leader_id]

    # ------------------------------------------------------------------
    # The four gray fault kinds
    # ------------------------------------------------------------------

    def slow_endpoint(self, address, extra_latency, duration=None):
        """Every message to ``address`` pays ``extra_latency`` seconds.

        The revert removes exactly the impairment layer this injection
        pushed, so overlapping injections against the same endpoint
        stack and unwind independently (in any revert order)."""
        layer = []

        def apply():
            layer.append(self.network.degrade(address,
                                              extra_latency=extra_latency))

        def revert():
            self.network.restore(address, layer.pop())

        self.faults.inject_gray(address, "slow", apply=apply, revert=revert,
                                duration=duration)
        return address

    def oneway_partition(self, src, dst, duration=None):
        """Block the ``src -> dst`` direction only."""
        self.faults.inject_gray(
            dst, "partition",
            apply=lambda: self.network.partition_oneway(src, dst),
            revert=lambda: self.network.heal_oneway(src, dst),
            duration=duration,
            reason=f"oneway:{src}")
        return dst

    def lossy_endpoint(self, address, loss=0.0, duplicate=0.0, duration=None):
        """Probabilistically drop and/or duplicate messages to ``address``.

        Stacks with other impairments on the endpoint; the revert
        removes only this injection's layer."""
        layer = []

        def apply():
            layer.append(self.network.degrade(address, loss=loss,
                                              duplicate=duplicate))

        def revert():
            self.network.restore(address, layer.pop())

        self.faults.inject_gray(address, "loss" if loss else "duplicate",
                                apply=apply, revert=revert, duration=duration)
        return address

    def _stall(self, holder, delay):
        layers = self._stall_layers.setdefault(holder, [])
        layers.append(delay)
        holder.disk_stall = sum(layers)

    def _unstall(self, holder, delay):
        layers = self._stall_layers.get(holder)
        if not layers:
            return
        if delay in layers:
            layers.remove(delay)
        holder.disk_stall = sum(layers)
        if not layers:
            del self._stall_layers[holder]

    def disk_stall_mongo(self, member_id, delay, duration=None):
        """Every write op on the member hangs ``delay`` s in "fsync".

        Keep ``delay`` under the replica set's 0.25 s replicate
        deadline or the stall degenerates into visible write errors.
        Overlapping stalls on the same member add up; each revert
        subtracts only its own delay.
        """
        member = self.platform.mongo.member(member_id)
        self.faults.inject_gray(
            member_id, "disk-stall",
            apply=lambda: self._stall(member, delay),
            revert=lambda: self._unstall(member, delay),
            duration=duration)
        return member_id

    def disk_stall_etcd(self, node_id, delay, duration=None):
        """Every log-carrying append on the node hangs ``delay`` s.

        Keep ``delay`` under the Raft ``RPC_TIMEOUT`` (0.06 s) so
        the leader's appends still succeed — slowly — instead of
        timing out into crash-style errors. Overlapping stalls add up;
        each revert subtracts only its own delay.
        """
        node = self.platform.etcd.node(node_id)
        self.faults.inject_gray(
            node_id, "disk-stall",
            apply=lambda: self._stall(node, delay),
            revert=lambda: self._unstall(node, delay),
            duration=duration)
        return node_id
