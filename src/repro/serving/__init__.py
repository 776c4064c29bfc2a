"""Elastic inference serving: the second workload class (ROADMAP item 2).

Long-running inference Deployments with an SLO-driven replica
autoscaler sharing the GPU pool with training, plus AntBatchInfer-
style elastic batch inference. Everything is gated behind
``PlatformConfig(serving=True)``: with the flag off none of this is
constructed and the simulated training timeline is bit-identical to a
tree without the subsystem.
"""

from .autoscaler import ServingAutoscaler, plan_scaling
from .batch import (
    BatchCoordinator,
    BatchInferJob,
    SHARD_DONE,
    SHARD_LEASED,
    SHARD_PENDING,
    make_batch_worker_workload,
)
from .manifest import BatchInferManifest, ServingManifest
from .manager import (
    MODEL_ACTIVE,
    MODEL_DELETED,
    MODEL_DELETING,
    SERVING_REPLICAS,
    ServingManager,
    deployment_name,
)
from .replica import make_replica_workload
from .runtime import ReplicaHandle, ServingRuntime
from .traffic import (
    BurstProfile,
    ConstantProfile,
    DiurnalProfile,
    TrafficGenerator,
)

__all__ = [
    "BatchCoordinator",
    "BatchInferJob",
    "BatchInferManifest",
    "BurstProfile",
    "ConstantProfile",
    "DiurnalProfile",
    "MODEL_ACTIVE",
    "MODEL_DELETED",
    "MODEL_DELETING",
    "ReplicaHandle",
    "SERVING_REPLICAS",
    "SHARD_DONE",
    "SHARD_LEASED",
    "SHARD_PENDING",
    "ServingAutoscaler",
    "ServingManager",
    "ServingManifest",
    "ServingRuntime",
    "TrafficGenerator",
    "deployment_name",
    "make_batch_worker_workload",
    "make_replica_workload",
    "plan_scaling",
]
