"""Controller-managed workload resources: Job, StatefulSet, Deployment.

These are the three Kubernetes abstractions DLaaS builds on (paper
§III): the Guardian is a K8S *Job* (run to completion, restarted on
crash), learners are a *StatefulSet* (stable identity, auto-restart),
and helpers plus core services are *Deployments* (replica maintenance).
"""

from ..errors import InvalidResource
from .meta import ObjectMeta


class PodTemplate:
    """Spec + labels stamped onto every pod a controller creates."""

    def __init__(self, spec_factory, labels=None):
        if not callable(spec_factory):
            raise InvalidResource("PodTemplate needs a zero-arg spec factory")
        self._spec_factory = spec_factory
        self.labels = dict(labels or {})

    def make_spec(self):
        """A fresh PodSpec per pod — container workloads must not be shared."""
        return self._spec_factory()


class Job:
    """Run-to-completion semantics with retries (the Guardian's home)."""

    kind = "Job"

    def __init__(self, name, template, backoff_limit=6, labels=None):
        if backoff_limit < 0:
            raise InvalidResource("backoff_limit must be >= 0")
        self.metadata = ObjectMeta(name, labels=labels)
        self.template = template
        self.backoff_limit = backoff_limit
        self.succeeded = False
        self.failed = False
        self.failures = 0
        self.active_pod = None
        self.completion_time = None

    @property
    def complete(self):
        return self.succeeded or self.failed


class StatefulSet:
    """N replicas with stable ordinal identity (the learners' home)."""

    kind = "StatefulSet"

    def __init__(self, name, template, replicas):
        if replicas < 0:
            raise InvalidResource("replicas must be >= 0")
        self.metadata = ObjectMeta(name)
        self.template = template
        self.replicas = replicas
        self.deletion_requested = False

    def pod_name(self, ordinal):
        return f"{self.metadata.name}-{ordinal}"


class Deployment:
    """Keep N interchangeable replicas alive (core services, helpers)."""

    kind = "Deployment"

    def __init__(self, name, template, replicas=1):
        if replicas < 0:
            raise InvalidResource("replicas must be >= 0")
        self.metadata = ObjectMeta(name)
        self.template = template
        self.replicas = replicas
        self.deletion_requested = False
        self._pod_counter = 0

    def next_pod_name(self):
        self._pod_counter += 1
        return f"{self.metadata.name}-{self._pod_counter}"


class NetworkPolicy:
    """Isolation: which peers may talk to the selected pods.

    DLaaS applies these to learner pods so arbitrary user code cannot
    reach platform services or other tenants (paper §II, §III.d).
    """

    kind = "NetworkPolicy"

    def __init__(self, name, pod_selector, allow_from_selectors=()):
        self.metadata = ObjectMeta(name)
        self.pod_selector = dict(pod_selector)
        self.allow_from_selectors = [dict(s) for s in allow_from_selectors]


class PersistentVolumeClaim:
    """A claim the provisioner binds to an NFS volume."""

    kind = "PersistentVolumeClaim"

    def __init__(self, name):
        self.metadata = ObjectMeta(name)
        self.bound_volume = None  # NFS volume name once provisioned

    @property
    def bound(self):
        return self.bound_volume is not None
