"""Reconciling controllers: Job, StatefulSet, Deployment, Node, PVC.

Each controller is an independent loop that compares desired state
(the workload resource) against observed state (pods, node heartbeats)
and acts — the control-plane structure whose loose coupling the paper's
dependability argument relies on (§IV: "each component can fail
independently of the other").
"""

from ..sim.periodic import Periodic, Polling
from .kubelet import release_pod_resources
from .resources.node import NOT_READY, READY
from .resources.pod import FAILED, Pod

PVC_BIND_DELAY = 0.2  # provisioning a volume for a claim, simulated seconds
NODE_CHECK_INTERVAL = 0.5  # between node-heartbeat checks, simulated seconds
EVICTION_TIMEOUT = 3.0  # heartbeat silence before a node is NotReady
PVC_CHECK_INTERVAL = 0.1  # between scans for unbound claims, simulated seconds


def pv_name(claim):
    """The NFS volume the provisioner binds the claim ``claim`` to."""
    return f"pv-{claim}"


class Controller(Polling):
    """Base reconcile loop."""

    name = "controller"

    def __init__(self, kernel, api, interval=0.2):
        self.kernel = kernel
        self.api = api
        self._loop = Periodic(kernel, self.name, self.reconcile_once, interval)

    def reconcile_once(self):
        try:
            self.reconcile()
        except Exception as exc:
            # A real controller logs and retries; one bad resource
            # must never kill the reconcile loop.
            self.api.record_event("Controller", self.name, "ReconcileError",
                                  repr(exc))

    def reconcile(self):
        raise NotImplementedError


class OwnerController(Controller):
    """The loop over one owner ``kind`` and its pods. A pass visits only
    the owners written, or whose pods were written, since the last pass,
    in ``api.list`` order (DESIGN.md "A pass visits what changed").
    """

    kind = None
    _watches = ()  # (owner-kind watch, Pod watch) while subscribed

    def start(self):
        if not self._watches:
            self._watches = (self.api.watch(self.kind), self.api.watch("Pod"))
            # The names of the owners the next pass visits; the
            # relist at subscribe makes the first pass visit them all.
            self._dirty = {o.metadata.name for o in self.api.list(self.kind)}
        return super().start()

    def stop(self):
        for watch in self._watches:
            watch.cancel()
        self._watches = ()
        return super().stop()

    def reconcile(self):
        owners, pods = self._watches
        dirty = self._dirty
        for _type, owner in iter(owners.get_nowait, None):
            dirty.add(owner.metadata.name)
        for _type, pod in iter(pods.get_nowait, None):
            ref = pod.metadata.owner
            if ref is not None and ref[0] == self.kind:
                dirty.add(ref[1])
        if dirty:
            for owner in self.api.list(self.kind):
                if owner.metadata.name in dirty:
                    self.reconcile_owner(owner)
        # Not reached if an owner raised: then every owner stays dirty.
        dirty.clear()


class JobController(OwnerController):
    """K8S Jobs: run each to completion exactly once, with retries.

    This is the abstraction that guarantees Guardian restart (paper
    §III.d): if the Job's pod dies for any reason, a replacement pod is
    created, up to ``backoff_limit`` failures, after which the Job is
    marked failed.
    """

    name = "job-controller"
    kind = "Job"

    def reconcile_owner(self, job):
        if job.complete:
            return
        pod = None
        if job.active_pod is not None:
            pod = self.api.get_or_none("Pod", job.active_pod)
        if pod is None:
            self._create_pod(job)
        elif pod.phase == "Succeeded":
            job.succeeded = True
            job.completion_time = self.kernel.now
            self.api.update(job)
            self.api.record_event("Job", job.metadata.name, "Completed")
        elif pod.phase == "Failed":
            job.failures += 1
            if self.api.exists("Pod", pod.metadata.name):
                pod.deletion_requested = True
                self.api.update(pod)
            job.active_pod = None
            if job.failures > job.backoff_limit:
                job.failed = True
                job.completion_time = self.kernel.now
                self.api.record_event("Job", job.metadata.name, "BackoffLimitExceeded")
            self.api.update(job)

    def _create_pod(self, job):
        pod_name = f"{job.metadata.name}-r{job.failures}"
        if self.api.exists("Pod", pod_name):
            # Previous incarnation still terminating; wait for it.
            return
        labels = dict(job.template.labels)
        labels.setdefault("job-name", job.metadata.name)
        pod = Pod(pod_name, job.template.make_spec(), labels=labels,
                  owner=("Job", job.metadata.name))
        self.api.create(pod)
        job.active_pod = pod_name
        self.api.update(job)
        self.api.record_event("Job", job.metadata.name, "PodCreated", pod_name)


class StatefulSetController(OwnerController):
    """Stable-identity replicas: learner-0..learner-(n-1).

    A failed or lost ordinal pod is replaced by a new pod *with the same
    name*, which is how crashed learners rejoin distributed training
    with their identity intact (paper §III.e, §III.h).
    """

    name = "statefulset-controller"
    kind = "StatefulSet"

    def reconcile_owner(self, sset):
        if sset.deletion_requested:
            self._tear_down(sset)
            return
        for ordinal in range(sset.replicas):
            pod_name = sset.pod_name(ordinal)
            pod = self.api.get_or_none("Pod", pod_name)
            if pod is None:
                self._create_pod(sset, ordinal)
            elif pod.is_terminal() and not pod.deletion_requested:
                # Replace: request deletion; next pass recreates.
                pod.deletion_requested = True
                self.api.update(pod)
        # Scale down: remove ordinals >= replicas.
        for pod in self.api.list("Pod", owner=("StatefulSet", sset.metadata.name)):
            ordinal = self._ordinal_of(sset, pod.metadata.name)
            if ordinal is not None and ordinal >= sset.replicas \
                    and not pod.deletion_requested:
                pod.deletion_requested = True
                self.api.update(pod)

    @staticmethod
    def _ordinal_of(sset, pod_name):
        prefix = sset.metadata.name + "-"
        if not pod_name.startswith(prefix):
            return None
        try:
            return int(pod_name[len(prefix):])
        except ValueError:
            return None

    def _create_pod(self, sset, ordinal):
        labels = dict(sset.template.labels)
        labels.setdefault("statefulset", sset.metadata.name)
        labels["ordinal"] = str(ordinal)
        spec = sset.template.make_spec()
        pod = Pod(sset.pod_name(ordinal), spec, labels=labels,
                  owner=("StatefulSet", sset.metadata.name))
        for container in spec.containers:
            container.env.setdefault("ORDINAL", str(ordinal))
        self.api.create(pod)
        self.api.record_event("StatefulSet", sset.metadata.name, "PodCreated",
                              pod.metadata.name)

    def _tear_down(self, sset):
        remaining = 0
        for pod in self.api.list("Pod", owner=("StatefulSet", sset.metadata.name)):
            remaining += 1
            if not pod.deletion_requested:
                pod.deletion_requested = True
                self.api.update(pod)
        if remaining == 0:
            self.api.delete("StatefulSet", sset.metadata.name)


class DeploymentController(OwnerController):
    """Interchangeable replicas for services and helper pods."""

    name = "deployment-controller"
    kind = "Deployment"

    def reconcile_owner(self, deployment):
        owned = self.api.list(
            "Pod", owner=("Deployment", deployment.metadata.name))
        if deployment.deletion_requested:
            for pod in owned:
                if not pod.deletion_requested:
                    pod.deletion_requested = True
                    self.api.update(pod)
            if not owned:
                self.api.delete("Deployment", deployment.metadata.name)
            return
        live = [p for p in owned if not p.is_terminal() and not p.deletion_requested]
        for pod in owned:
            if pod.is_terminal() and not pod.deletion_requested:
                pod.deletion_requested = True
                self.api.update(pod)
        for _ in range(deployment.replicas - len(live)):
            self._create_pod(deployment)
        for pod in live[deployment.replicas:]:
            pod.deletion_requested = True
            self.api.update(pod)

    def _create_pod(self, deployment):
        labels = dict(deployment.template.labels)
        labels.setdefault("deployment", deployment.metadata.name)
        pod = Pod(deployment.next_pod_name(), deployment.template.make_spec(),
                  labels=labels, owner=("Deployment", deployment.metadata.name))
        self.api.create(pod)
        self.api.record_event("Deployment", deployment.metadata.name, "PodCreated",
                              pod.metadata.name)


class NodeController(Controller):
    """Detects dead nodes by heartbeat staleness and evicts their pods."""

    name = "node-controller"

    def __init__(self, kernel, api):
        super().__init__(kernel, api, interval=NODE_CHECK_INTERVAL)

    def reconcile(self):
        now = self.kernel.now
        for node in self.api.list("Node"):
            stale = now - node.last_heartbeat > EVICTION_TIMEOUT
            if stale and node.condition == READY:
                node.condition = NOT_READY
                self.api.update(node)
                self.api.record_event("Node", node.metadata.name, "NodeNotReady")
                self._evict_pods(node)
            elif not stale and node.condition == NOT_READY:
                node.condition = READY
                self.api.update(node)
                self.api.record_event("Node", node.metadata.name, "NodeReady")
        self._gc_orphaned_deletions()

    def _gc_orphaned_deletions(self):
        """Finalize deletions no kubelet can perform.

        A pod whose node is dead (or that was never bound) has no
        kubelet to tear it down; without this, StatefulSet replacements
        would wait forever on a pod stuck terminating on a lost machine.
        """
        for pod in self.api.list("Pod"):
            if not pod.deletion_requested:
                continue
            if pod.node_name is None:
                orphaned = True
            else:
                node = self.api.get_or_none("Node", pod.node_name)
                orphaned = node is None or node.condition == NOT_READY
            if orphaned:
                release_pod_resources(self.api, pod)
                self.api.delete("Pod", pod.metadata.name)
                self.api.record_event("Pod", pod.metadata.name, "ForceDeleted",
                                      "node unavailable")

    def _evict_pods(self, node):
        for pod in self.api.list("Pod", node_name=node.metadata.name):
            if pod.is_terminal():
                continue
            pod.phase = FAILED
            pod.message = "node lost"
            pod.finish_time = self.kernel.now
            release_pod_resources(self.api, pod)
            self.api.update(pod)
            self.api.record_event("Pod", pod.metadata.name, "Evicted",
                                  f"node {node.metadata.name} lost")


class PvcController(Controller):
    """Binds PersistentVolumeClaims to fresh NFS volumes."""

    name = "pvc-controller"

    def __init__(self, kernel, api, nfs_server):
        super().__init__(kernel, api, interval=PVC_CHECK_INTERVAL)
        self.nfs = nfs_server
        self._binding = set()

    def reconcile(self):
        for pvc in self.api.list("PersistentVolumeClaim"):
            if pvc.bound or pvc.metadata.uid in self._binding:
                continue
            self._binding.add(pvc.metadata.uid)
            self.kernel.spawn(self._bind(pvc), name=f"pvc-bind:{pvc.metadata.name}")

    def _bind(self, pvc):
        yield self.kernel.sleep(PVC_BIND_DELAY)
        volume_name = pv_name(pvc.metadata.name)
        self.nfs.create_volume(volume_name, exist_ok=True)
        pvc.bound_volume = volume_name
        self._binding.discard(pvc.metadata.uid)
        if self.api.exists("PersistentVolumeClaim", pvc.metadata.name):
            self.api.update(pvc)
            self.api.record_event("PersistentVolumeClaim", pvc.metadata.name, "Bound",
                                  volume_name)
