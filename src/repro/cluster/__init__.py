"""Simulated Kubernetes: the DLaaS platform layer.

Implements the Kubernetes semantics the paper's dependability design
builds on: Jobs run to completion with automatic restart (Guardians),
StatefulSets give learners stable identity across crashes, Deployments
keep core services and helpers at replica count, the scheduler
bin-packs GPU pods, kubelets enforce restart policies, and the node
controller evicts pods from dead machines.
"""

from .apiserver import ApiServer
from .cluster import KubernetesCluster
from .controllers import (
    DeploymentController,
    JobController,
    NodeController,
    PvcController,
    StatefulSetController,
    pv_name,
)
from .errors import (
    ClusterError,
    ConflictError,
    InvalidResource,
    NotFoundError,
    UnschedulableError,
)
from .images import ImageRegistry
from .kubectl import Kubectl
from .kubelet import ContainerContext, Kubelet, KILLED_EXIT_CODE
from .resources.meta import ObjectMeta, selector_matches
from .resources.node import NOT_READY, READY, Node, NodeResources
from .resources.pod import (
    FAILED,
    PENDING,
    RESTART_ALWAYS,
    RESTART_NEVER,
    RESTART_ON_FAILURE,
    RUNNING,
    SUCCEEDED,
    ContainerSpec,
    ContainerStatus,
    Pod,
    PodSpec,
)
from .resources.workloads import (
    Deployment,
    Job,
    NetworkPolicy,
    PersistentVolumeClaim,
    PodTemplate,
    StatefulSet,
)
from .scheduler import Scheduler

__all__ = [
    "ApiServer",
    "ClusterError",
    "ConflictError",
    "ContainerContext",
    "ContainerSpec",
    "ContainerStatus",
    "Deployment",
    "DeploymentController",
    "FAILED",
    "ImageRegistry",
    "InvalidResource",
    "Job",
    "JobController",
    "KILLED_EXIT_CODE",
    "Kubectl",
    "Kubelet",
    "KubernetesCluster",
    "NOT_READY",
    "NetworkPolicy",
    "Node",
    "NodeController",
    "NodeResources",
    "NotFoundError",
    "ObjectMeta",
    "PENDING",
    "PersistentVolumeClaim",
    "Pod",
    "PodSpec",
    "PodTemplate",
    "PvcController",
    "READY",
    "RESTART_ALWAYS",
    "RESTART_NEVER",
    "RESTART_ON_FAILURE",
    "RUNNING",
    "SUCCEEDED",
    "Scheduler",
    "StatefulSet",
    "StatefulSetController",
    "UnschedulableError",
    "pv_name",
    "selector_matches",
]
