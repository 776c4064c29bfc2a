"""Pods and containers — the unit of scheduling and execution."""

from ..errors import InvalidResource
from .meta import ObjectMeta

PENDING = "Pending"
RUNNING = "Running"
SUCCEEDED = "Succeeded"
FAILED = "Failed"

RESTART_ALWAYS = "Always"
RESTART_ON_FAILURE = "OnFailure"
RESTART_NEVER = "Never"

_RESTART_POLICIES = frozenset({RESTART_ALWAYS, RESTART_ON_FAILURE, RESTART_NEVER})


class ContainerSpec:
    """One container: an image plus a simulated workload.

    ``workload`` is a generator *function* taking a
    :class:`~repro.cluster.kubelet.ContainerContext`; it is invoked
    fresh on every (re)start of the container. Returning an int sets
    the exit code (None means 0); raising means exit code 1; a kill
    (crash, eviction) reports 137.
    """

    def __init__(self, name, image, workload=None, gpus=0, cpu_millicores=100,
                 memory_mb=256):
        if gpus < 0 or cpu_millicores < 0 or memory_mb < 0:
            raise InvalidResource(f"negative resource request on container {name!r}")
        self.name = name
        self.image = image
        self.workload = workload
        self.gpus = gpus
        self.cpu_millicores = cpu_millicores
        self.memory_mb = memory_mb
        self.env = {}  # the StatefulSet controller sets ORDINAL


class ContainerStatus:
    """Runtime status of one container within a pod."""

    def __init__(self, name):
        self.name = name
        self.state = "waiting"  # waiting | running | terminated
        self.exit_code = None
        self.restart_count = 0
        self.started_at = None
        self.finished_at = None


class PodSpec:
    """What to run and where it may run."""

    def __init__(self, containers, restart_policy=RESTART_ALWAYS, volumes=None,
                 node_selector=None, gpu_type=None, gang=None, gang_size=0):
        if not containers:
            raise InvalidResource("a pod needs at least one container")
        names = [c.name for c in containers]
        if len(set(names)) != len(names):
            raise InvalidResource(f"duplicate container names: {names}")
        if restart_policy not in _RESTART_POLICIES:
            raise InvalidResource(f"bad restart policy {restart_policy!r}")
        self.containers = list(containers)
        self.restart_policy = restart_policy
        # volumes: logical name -> PVC claim name
        self.volumes = dict(volumes or {})
        self.node_selector = dict(node_selector or {})
        self.gpu_type = gpu_type
        # Gang scheduling: pods sharing a gang name are placed
        # all-or-nothing when gang_size of them are pending together —
        # partial placement of a synchronous distributed job would hold
        # GPUs at the MPI wire-up barrier forever.
        if gang is not None and gang_size < 2:
            raise InvalidResource("gang scheduling needs gang_size >= 2")
        self.gang = gang
        self.gang_size = gang_size
        # Requests are fixed at construction (no call site edits a
        # container's resources afterwards), so the totals the scheduler
        # reads on every pass are summed once here.
        self.total_gpus = sum(c.gpus for c in self.containers)
        self.total_cpu = sum(c.cpu_millicores for c in self.containers)
        self.total_memory = sum(c.memory_mb for c in self.containers)
        # Everything Node.can_fit reads: two specs with equal shapes fit
        # exactly the same nodes.
        self.shape = (self.gpu_type, tuple(sorted(self.node_selector.items())),
                      self.total_gpus, self.total_cpu, self.total_memory)


class Pod:
    """A scheduled, running (or finished) instance of a PodSpec."""

    kind = "Pod"

    def __init__(self, name, spec, labels=None, owner=None):
        self.metadata = ObjectMeta(name, labels=labels, owner=owner)
        self.spec = spec
        self.phase = PENDING
        self.node_name = None
        self.container_statuses = {c.name: ContainerStatus(c.name) for c in spec.containers}
        self.start_time = None
        self.finish_time = None
        self.deletion_requested = False
        self.message = ""

    @property
    def restart_count(self):
        return sum(cs.restart_count for cs in self.container_statuses.values())

    def is_terminal(self):
        return self.phase in (SUCCEEDED, FAILED)

    def __repr__(self):
        return f"<Pod {self.metadata.name} {self.phase}>"
