"""Analytic throughput model: step time = compute ∥ input + visible comm.

This is the measurement substrate for the paper's evaluation figures.
Per training step:

* compute — batch FLOPs over the GPU's achieved FLOPS for the model;
* communication — ring-allreduce gradient exchange over the node's GPU
  fabric (and Ethernet across learners), partially hidden under
  backward compute per the framework's overlap fraction, plus a fixed
  per-GPU coordination cost;
* input pipeline — streamed training data (from the object store over
  1GbE in the paper's setup) can bound the step if slower than compute;
* platform taxes — containerization/network-overlay overheads per
  platform, plus a small deterministic run-to-run jitter term (the
  paper's Fig. 2 numbers bounce between 0.3% and 5.9% without
  structure; the jitter reproduces that texture deterministically).
"""

import hashlib
from dataclasses import dataclass

from .gpus import ETH_1G, achieved_tflops

# Bytes/s available for streaming training data into each learner.
INPUT_BANDWIDTH = 117_000_000.0  # ~1GbE payload rate


@dataclass(frozen=True)
class PlatformProfile:
    """Execution environment taxes."""

    name: str
    # Fractional CPU steal on the compute path (docker daemon, kubelet,
    # helper containers sharing the host).
    compute_tax: float
    # Fractional slowdown of the streamed-input path (overlay network,
    # FUSE/COS connector in a container).
    input_tax: float
    # Run-to-run variance amplitude (uniform slowdown in [0, jitter)).
    jitter: float


BARE_METAL = PlatformProfile(name="bare-metal", compute_tax=0.0, input_tax=0.0,
                             jitter=0.004)
DLAAS = PlatformProfile(name="dlaas", compute_tax=0.012, input_tax=0.06,
                        jitter=0.042)
DGX1 = PlatformProfile(name="dgx-1", compute_tax=0.0, input_tax=0.0,
                       jitter=0.004)


@dataclass(frozen=True)
class WorkloadConfig:
    """One benchmark point: model x framework x hardware layout."""

    model: object  # ModelSpec
    framework: object  # FrameworkSpec
    gpu: object  # GpuSpec
    gpus_per_learner: int = 1
    learners: int = 1
    batch_per_gpu: int = 0  # 0 -> model default
    intra_node: object = None  # InterconnectSpec; required if gpus > 1
    inter_node: object = ETH_1G

    @property
    def batch(self):
        return self.batch_per_gpu or self.model.default_batch_per_gpu

    @property
    def total_gpus(self):
        return self.gpus_per_learner * self.learners


def _jitter_factor(platform, config):
    """Deterministic pseudo-random jitter for one (platform, config)."""
    key = "|".join([
        platform.name, config.model.name, config.framework.name, config.gpu.name,
        str(config.gpus_per_learner), str(config.learners), str(config.batch),
    ])
    digest = hashlib.sha256(key.encode()).digest()
    unit = int.from_bytes(digest[:8], "big") / 2**64  # [0, 1)
    return 1.0 + platform.jitter * unit


def compute_time(config):
    """Pure GPU compute seconds per step (one learner's batch slice)."""
    tflops = achieved_tflops(config.gpu, config.model)
    return config.batch * config.model.gflops_per_image / (tflops * 1000.0)


def communication_time(config):
    """Visible (non-overlapped) gradient-sync seconds per step."""
    gradient_gb = config.model.gradient_mb / 1000.0
    total = 0.0
    if config.gpus_per_learner > 1:
        fabric = config.intra_node
        if fabric is None:
            raise ValueError("multi-GPU config needs an intra_node interconnect")
        g = config.gpus_per_learner
        total += 2.0 * (g - 1) / g * gradient_gb / fabric.allreduce_gb_s
        total += fabric.latency_s * 2 * (g - 1)
    if config.learners > 1:
        n = config.learners
        # Both synchronization topologies move 2(n-1)/n of the gradient
        # per worker; they differ in latency rounds: a (sharded,
        # co-located) parameter server needs one push + one pull, a ring
        # allreduce needs 2(n-1) neighbor exchanges.
        total += 2.0 * (n - 1) / n * gradient_gb / config.inter_node.allreduce_gb_s
        if config.framework.distribution_mode == "parameter-server":
            total += config.inter_node.latency_s * 2
        else:
            total += config.inter_node.latency_s * 2 * (n - 1)
    visible = total * (1.0 - config.framework.overlap_fraction)
    reference = config.intra_node or config.inter_node
    visible += config.framework.sync_overhead(config.total_gpus, reference)
    return visible


def input_time(config, platform):
    """Seconds to stream one step's training data into a learner."""
    step_bytes = config.batch * config.gpus_per_learner * config.model.image_kb * 1024.0
    return step_bytes * (1.0 + platform.input_tax) / INPUT_BANDWIDTH


def step_time(config, platform):
    """Seconds per training step on ``platform``."""
    compute = compute_time(config) * (1.0 + platform.compute_tax)
    comm = communication_time(config)
    stream = input_time(config, platform)
    # Input pipelines prefetch: streaming hides under compute unless it
    # is the bottleneck.
    return max(compute + comm, stream) * _jitter_factor(platform, config)


def images_per_sec(config, platform):
    """Aggregate training throughput (the paper's metric)."""
    return config.batch * config.total_gpus / step_time(config, platform)
