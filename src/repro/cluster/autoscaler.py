"""Cluster autoscaler: the platform's elasticity mechanism.

The paper names elasticity as a first-class platform property ("handles
the scheduling, orchestration, elasticity and resilience of deep
learning jobs"). This controller watches for unschedulable pods and
provisions new GPU nodes (with a cloud-realistic boot delay), and
retires nodes that have sat idle, within [min_nodes, max_nodes].
"""

from .controllers import Controller

# A pending pod younger than this is mid-scheduling churn, not demand.
PENDING_GRACE = 3.0


class NodeTemplate:
    """Shape of nodes the autoscaler provisions."""

    def __init__(self, gpus=4, gpu_type="k80", cpu_millicores=16000,
                 memory_mb=65536, labels=None):
        self.gpus = gpus
        self.gpu_type = gpu_type
        self.cpu_millicores = cpu_millicores
        self.memory_mb = memory_mb
        self.labels = dict(labels or {"pool": "gpu", "autoscaled": "true"})


class ClusterAutoscaler(Controller):
    """Scale the autoscaled GPU pool with demand."""

    name = "cluster-autoscaler"

    def __init__(self, kernel, cluster, template=None, min_nodes=0, max_nodes=8,
                 boot_time=90.0, idle_timeout=300.0, interval=1.0):
        super().__init__(kernel, cluster.api, interval=interval)
        if min_nodes < 0 or max_nodes < min_nodes:
            raise ValueError("need 0 <= min_nodes <= max_nodes")
        self.cluster = cluster
        self.template = template or NodeTemplate()
        self.min_nodes = min_nodes
        self.max_nodes = max_nodes
        self.boot_time = boot_time
        self.idle_timeout = idle_timeout
        self._booting = 0
        self._node_counter = 0
        self._idle_since = {}
        self.scale_ups = 0
        self.scale_downs = 0

    # ------------------------------------------------------------------

    def _pool_nodes(self):
        return [
            node for node in self.api.list("Node", namespace="")
            if node.metadata.labels.get("autoscaled") == "true"
        ]

    def _unschedulable_demand(self):
        """Pending pods the current cluster cannot place, old enough to
        not be mid-scheduling churn."""
        now = self.kernel.now
        demand = []
        for pod in self.api.list("Pod", unscheduled=True):
            created = pod.metadata.creation_time or 0.0
            if now - created < PENDING_GRACE:
                continue
            if pod.spec.gpu_type and pod.spec.gpu_type != self.template.gpu_type:
                continue
            demand.append(pod)
        return demand

    def reconcile(self):
        self._maybe_scale_up()
        self._maybe_scale_down()

    # ------------------------------------------------------------------

    def _maybe_scale_up(self):
        demand = self._unschedulable_demand()
        if not demand:
            return
        # Only the autoscaled pool counts against the budget; fixed
        # nodes are outside this controller's jurisdiction.
        pool_size = len(self._pool_nodes()) + self._booting
        if pool_size >= self.max_nodes:
            return
        gpus_needed = sum(p.spec.total_gpus for p in demand)
        nodes_needed = max(1, -(-gpus_needed // max(1, self.template.gpus)))
        to_boot = min(nodes_needed, self.max_nodes - pool_size)
        for _ in range(to_boot):
            self._booting += 1
            self.scale_ups += 1
            self.kernel.spawn(self._boot_node(), name="autoscaler:boot")
        self.api.record_event("Autoscaler", self.name, "ScaleUp",
                              f"provisioning {to_boot} node(s) for "
                              f"{len(demand)} pending pod(s)")

    def _boot_node(self):
        yield self.kernel.sleep(self.boot_time)
        self._node_counter += 1
        name = f"autoscale-{self._node_counter}"
        self.cluster.add_node(
            name, gpus=self.template.gpus, gpu_type=self.template.gpu_type,
            cpu_millicores=self.template.cpu_millicores,
            memory_mb=self.template.memory_mb, labels=dict(self.template.labels),
        )
        self._booting -= 1
        self.api.record_event("Autoscaler", self.name, "NodeProvisioned", name)

    # ------------------------------------------------------------------

    def _maybe_scale_down(self):
        now = self.kernel.now
        pool = self._pool_nodes()
        removable = len(pool) - self.min_nodes
        for node in pool:
            busy = node.allocated_gpus > 0 or node.allocated_cpu > 0
            name = node.metadata.name
            if busy:
                self._idle_since.pop(name, None)
                continue
            self._idle_since.setdefault(name, now)
            if removable <= 0:
                continue
            if now - self._idle_since[name] >= self.idle_timeout:
                self._retire(node)
                removable -= 1

    def _retire(self, node):
        name = node.metadata.name
        self._idle_since.pop(name, None)
        self.cluster.remove_node(name)
        self.scale_downs += 1
        self.api.record_event("Autoscaler", self.name, "NodeRetired", name)
