"""Cluster nodes: GPU-bearing machines."""

from .meta import ObjectMeta

READY = "Ready"
NOT_READY = "NotReady"
NODE_CPU_MILLICORES = 16000  # every node's allocatable CPU
NODE_MEMORY_MB = 65536  # every node's allocatable memory


class NodeResources:
    """Allocatable capacity of a node."""

    def __init__(self, gpus=0, gpu_type=None):
        self.gpus = gpus
        self.gpu_type = gpu_type
        self.cpu_millicores = NODE_CPU_MILLICORES
        self.memory_mb = NODE_MEMORY_MB


class Node:
    """One machine in the cluster."""

    kind = "Node"

    def __init__(self, name, resources=None, labels=None):
        self.metadata = ObjectMeta(name, labels=labels)
        self.capacity = resources or NodeResources()
        self.condition = READY
        self.last_heartbeat = 0.0
        # name -> pod resource totals currently bound here
        self.allocated_gpus = 0
        self.allocated_cpu = 0
        self.allocated_memory = 0

    def can_fit(self, pod_spec):
        if self.condition != READY:
            return False
        if pod_spec.gpu_type and pod_spec.gpu_type != self.capacity.gpu_type:
            return False
        if not all(self.metadata.labels.get(k) == v
                   for k, v in pod_spec.node_selector.items()):
            return False
        return (
            self.allocated_gpus + pod_spec.total_gpus <= self.capacity.gpus
            and self.allocated_cpu + pod_spec.total_cpu <= self.capacity.cpu_millicores
            and self.allocated_memory + pod_spec.total_memory <= self.capacity.memory_mb
        )

    def allocate(self, pod_spec):
        self.allocated_gpus += pod_spec.total_gpus
        self.allocated_cpu += pod_spec.total_cpu
        self.allocated_memory += pod_spec.total_memory

    def release(self, pod_spec):
        self.allocated_gpus -= pod_spec.total_gpus
        self.allocated_cpu -= pod_spec.total_cpu
        self.allocated_memory -= pod_spec.total_memory

    @property
    def free_gpus(self):
        return self.capacity.gpus - self.allocated_gpus

    def __repr__(self):
        return (f"<Node {self.metadata.name} {self.condition} "
                f"gpus={self.allocated_gpus}/{self.capacity.gpus}>")
