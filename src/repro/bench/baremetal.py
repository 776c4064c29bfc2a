"""Baseline runners: bare metal and DGX-1.

The paper's Fig. 2 baseline is "directly executing the benchmarks (non
containerized) on bare metal machines manually"; Fig. 3's baseline is an
NVidia DGX-1. Both are modelled as a learner training loop run directly
on the simulation kernel — no Kubernetes, no containers, no helpers, no
platform taxes — with the appropriate platform profile and interconnect.
"""

from ..frameworks import (
    BARE_METAL,
    DGX1,
    ETH_1G,
    NVLINK,
    P100_SXM2,
    PCIE3,
    TrainingRun,
    WorkloadConfig,
    get_framework,
    get_gpu,
    get_model,
)
from ..sim import Kernel


def build_config(model_name, framework_name, gpu_name, gpus):
    return WorkloadConfig(
        model=get_model(model_name),
        framework=get_framework(framework_name),
        gpu=get_gpu(gpu_name),
        gpus_per_learner=gpus,
        intra_node=PCIE3 if gpus > 1 else None,
        inter_node=ETH_1G,
    )


def dgx1_config(model_name, framework_name, gpus):
    """A DGX-1 slot: SXM2 P100s on NVLink."""
    return WorkloadConfig(
        model=get_model(model_name),
        framework=get_framework(framework_name),
        gpu=P100_SXM2,
        gpus_per_learner=gpus,
        intra_node=NVLINK if gpus > 1 else None,
        inter_node=ETH_1G,
    )


def measure_direct(config, platform_profile, steps=120, seed=0):
    """Run a training loop directly on a fresh kernel; returns images/sec.

    No checkpointing (benchmark runs measure steady-state training
    throughput), startup time excluded — matching how images/sec is
    reported by the CNN benchmark suites the paper uses.
    """
    kernel = Kernel(seed=seed)
    marks = {}
    training = TrainingRun(
        kernel, config, platform_profile, target_steps=steps,
        on_started=lambda step, now: marks.setdefault("start", now),
    )
    kernel.run_until_complete(kernel.spawn(training.run()))
    duration = kernel.now - marks["start"]
    images = steps * config.batch * config.total_gpus
    return images / duration


def measure_bare_metal(config, steps=120, seed=0):
    return measure_direct(config, BARE_METAL, steps=steps, seed=seed)


def measure_dgx1(config, steps=120, seed=0):
    return measure_direct(config, DGX1, steps=steps, seed=seed)
