"""Assembly of the full simulated Kubernetes cluster.

One object wiring the API server, scheduler, controllers, image
registry, NFS provisioner and per-node kubelets — the "DLaaS Platform
Layer" of the paper (Docker + Kubernetes + the stores ride on top).
"""

from .apiserver import ApiServer
from .controllers import (
    DeploymentController,
    JobController,
    NodeController,
    PvcController,
    StatefulSetController,
)
from .images import ImageRegistry
from .kubectl import Kubectl
from .kubelet import Kubelet
from .resources.meta import selector_matches
from .resources.node import Node, NodeResources
from .scheduler import Scheduler


class KubernetesCluster:
    """The platform layer: nodes, control plane, image registry."""

    def __init__(self, kernel, nfs_server, tracer, metrics, events):
        self.kernel = kernel
        self.nfs = nfs_server
        self.events = events
        self.api = ApiServer(kernel, tracer)
        self.registry = ImageRegistry(kernel)
        self.scheduler = Scheduler(kernel, self.api, tracer, metrics, events)
        self.controllers = [
            JobController(kernel, self.api),
            StatefulSetController(kernel, self.api),
            DeploymentController(kernel, self.api),
            NodeController(kernel, self.api),
            PvcController(kernel, self.api, nfs_server),
        ]
        self.kubelets = {}
        # One Pod watch for every kubelet: a pod event marks its node
        # for that node's next sync pass (``pods_changed``).
        self._pod_watch = self.api.watch("Pod")
        self.dirty_nodes = set()
        self.kubectl = Kubectl(self)
        self._started = False

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def add_node(self, name, gpus=0, gpu_type=None, labels=None):
        node = Node(name, NodeResources(gpus=gpus, gpu_type=gpu_type),
                    labels=labels)
        self.api.create(node)
        kubelet = Kubelet(self.kernel, self.api, node, self.nfs, self.registry,
                          self)
        self.kubelets[name] = kubelet
        if self._started:
            kubelet.start()
        return node

    def kubelet_for(self, node_name):
        return self.kubelets.get(node_name)

    def pods_changed(self, node_name):
        """Whether ``node_name`` was marked dirty since it last asked;
        clears the mark."""
        dirty = self.dirty_nodes
        for _type, pod in iter(self._pod_watch.get_nowait, None):
            dirty.add(pod.node_name)
        if node_name not in dirty:
            return False
        dirty.remove(node_name)
        return True

    def start(self):
        if self._started:
            return self
        self._started = True
        self.scheduler.start()
        for controller in self.controllers:
            controller.start()
        for kubelet in self.kubelets.values():
            kubelet.start()
        return self

    # ------------------------------------------------------------------
    # Node fault injection
    # ------------------------------------------------------------------

    def crash_node(self, node_name):
        """Machine failure: containers die silently; the node controller
        notices via heartbeat staleness and evicts."""
        kubelet = self.kubelets[node_name]
        kubelet.crash()
        return kubelet

    def restart_node(self, node_name):
        kubelet = self.kubelets[node_name]
        kubelet.restart()
        return kubelet

    # ------------------------------------------------------------------
    # Network policy evaluation
    # ------------------------------------------------------------------

    def network_allowed(self, src_labels, dst_labels):
        """May a pod with ``src_labels`` talk to one with ``dst_labels``?

        Default-allow until some NetworkPolicy selects the destination;
        then only sources matching an allow-list selector get through —
        Kubernetes semantics, and the isolation mechanism DLaaS applies
        to learner pods.
        """
        policies = [
            p for p in self.api.list("NetworkPolicy")
            if selector_matches(p.pod_selector, dst_labels)
        ]
        if not policies:
            return True
        return any(
            selector_matches(allow, src_labels)
            for policy in policies
            for allow in policy.allow_from_selectors
        )

    # ------------------------------------------------------------------
    # Capacity overview (benchmarks, the scraper's GPU gauges)
    # ------------------------------------------------------------------

    def capacity_summary(self):
        # Straight off the store, not list(): the scraper reads this
        # every tick and must not add to the API server's list traffic.
        nodes = self.api._store("Node").values()
        return {
            "nodes": len(nodes),
            "gpus_total": sum(n.capacity.gpus for n in nodes),
            "gpus_allocated": sum(n.allocated_gpus for n in nodes),
        }
