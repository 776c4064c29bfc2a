"""DL frameworks, models, GPUs and the analytic performance model.

Everything the reproduction needs to stand in for real Caffe/TensorFlow
training on real K80/P100/DGX-1 hardware: a model zoo, GPU and
interconnect specs, framework adapters, the step-time model behind
Figures 2–3, and a restartable simulated training loop with
checkpointing.
"""

from .base import (
    ALLREDUCE,
    CAFFE,
    FRAMEWORKS,
    HOROVOD,
    PARAMETER_SERVER,
    PYTORCH,
    TENSORFLOW,
    FrameworkSpec,
    get_framework,
)
from .gpus import (
    ETH_1G,
    ETH_10G,
    GPU_CATALOGUE,
    INFINIBAND,
    INTERCONNECTS,
    K80,
    NVLINK,
    P100_PCIE,
    P100_SXM2,
    PCIE3,
    V100_SXM2,
    GpuSpec,
    InterconnectSpec,
    achieved_tflops,
    get_gpu,
)
from .models import (
    ALEXNET,
    GOOGLENET,
    INCEPTIONV3,
    MODEL_ZOO,
    RESNET50,
    VGG16,
    ModelSpec,
    get_model,
)
from .perfmodel import (
    BARE_METAL,
    DGX1,
    DLAAS,
    PlatformProfile,
    WorkloadConfig,
    communication_time,
    compute_time,
    images_per_sec,
    input_time,
    step_time,
)
from .trainer import CheckpointPolicy, CheckpointStore, TrainingRun, synthetic_loss

__all__ = [
    "ALEXNET",
    "ALLREDUCE",
    "BARE_METAL",
    "CAFFE",
    "CheckpointPolicy",
    "CheckpointStore",
    "DGX1",
    "DLAAS",
    "ETH_10G",
    "ETH_1G",
    "FRAMEWORKS",
    "FrameworkSpec",
    "GOOGLENET",
    "GPU_CATALOGUE",
    "GpuSpec",
    "HOROVOD",
    "INCEPTIONV3",
    "INFINIBAND",
    "INTERCONNECTS",
    "InterconnectSpec",
    "K80",
    "MODEL_ZOO",
    "ModelSpec",
    "NVLINK",
    "P100_PCIE",
    "P100_SXM2",
    "PARAMETER_SERVER",
    "PCIE3",
    "PYTORCH",
    "PlatformProfile",
    "RESNET50",
    "TENSORFLOW",
    "TrainingRun",
    "V100_SXM2",
    "VGG16",
    "WorkloadConfig",
    "achieved_tflops",
    "communication_time",
    "compute_time",
    "get_framework",
    "get_gpu",
    "get_model",
    "images_per_sec",
    "input_time",
    "step_time",
    "synthetic_loss",
]
