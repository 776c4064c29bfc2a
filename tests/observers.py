"""Real observers for components a test builds outside a platform.

Every component is observed one way: it takes the metrics registry,
tracer and event recorder the platform passes it, and records into
them unconditionally. A test that builds one by hand passes fresh
ones, and reads what it asserts on from them.
"""

from collections import namedtuple

from repro.cluster import KubernetesCluster
from repro.cluster.scheduler import Scheduler
from repro.core.events import EventRecorder
from repro.nfs import NfsServer
from repro.raftkv import EtcdCluster
from repro.sim import MetricsRegistry, Tracer


class Observers:
    """A fresh ``metrics`` registry, ``tracer`` and ``events`` recorder
    on one kernel, as a platform would hold them."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(kernel)
        self.events = EventRecorder(kernel, self.metrics)


def nfs_server(kernel, observers=None):
    observers = observers or Observers(kernel)
    return NfsServer(kernel, observers.metrics, observers.events)


def kubernetes(kernel, nfs=None, cluster_class=KubernetesCluster):
    """A cluster on ``nfs`` (a new NFS server when None), observed by
    fresh observers."""
    observers = Observers(kernel)
    nfs = nfs or nfs_server(kernel, observers)
    return cluster_class(kernel, nfs, observers.tracer, observers.metrics,
                         observers.events)


def etcd_cluster(kernel, network, size=3):
    observers = Observers(kernel)
    return EtcdCluster(kernel, network, observers.metrics, observers.events,
                       size=size)


def scheduler(api, scheduler_class=Scheduler):
    """A scheduler binding through ``api`` and tracing into its tracer."""
    observers = Observers(api.kernel)
    return scheduler_class(api.kernel, api, api.tracer, observers.metrics,
                           observers.events)


K8sEvent = namedtuple("K8sEvent", "time kind name reason message")


def k8s_events(api):
    """The Kubernetes events ``api`` recorded, oldest first: its
    ``apiserver`` / ``k8s-event`` trace records, as ``kubectl get
    events`` rows (``kind`` is the involved resource's kind)."""
    return [K8sEvent(r.time, r.fields["resource"], r.fields["name"],
                     r.fields["reason"], r.fields["message"])
            for r in api.tracer.query(component="apiserver", kind="k8s-event")]
