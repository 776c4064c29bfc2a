"""Model zoo: the CNN benchmarks of the paper's evaluation.

Sizes and FLOP counts follow the standard references the paper cites
(Simonyan & Zisserman 2014; He et al. 2015; Szegedy et al. 2015;
jcjohnson/cnn-benchmarks). ``memory_bw_sensitivity`` captures how much
a model's achieved throughput depends on memory bandwidth rather than
raw FLOPS — large dense layers (VGG) are bandwidth-hungry, while
Inception's small factored convolutions are compute-dense. This is the
lever that separates HBM-equipped DGX-1 GPUs from PCIe cards at equal
nominal FLOPS (Fig. 3).
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class ModelSpec:
    """One trainable CNN architecture."""

    name: str
    params_millions: float
    # Forward+backward GFLOPs per image at the standard input size.
    gflops_per_image: float
    # Typical serialized input size per training image (JPEG), KB.
    image_kb: float
    # 0..1: fraction of a GPU's sustained dense throughput this model's
    # operator mix achieves (large GEMMs ~0.7; many small convolutions
    # much less).
    compute_efficiency: float
    # 0..1: how bandwidth-bound the model is; scales the HBM-vs-PCIe
    # throughput gap. See repro.frameworks.gpus.
    memory_bw_sensitivity: float
    default_batch_per_gpu: int
    # Stored activations per training image (forward tensors kept for
    # the backward pass), MB. Drives the GPU-memory fit check.
    activation_mb_per_image: float = 50.0

    @property
    def gradient_mb(self):
        """Gradient (= parameter) payload exchanged per step, MB (fp32)."""
        return self.params_millions * 4.0

    @property
    def checkpoint_mb(self):
        """Weights + optimizer state written per checkpoint, MB."""
        return self.params_millions * 4.0 * 2.0


VGG16 = ModelSpec(
    name="vgg16",
    params_millions=138.0,
    gflops_per_image=46.4,  # 15.5 fwd x ~3 for fwd+bwd
    image_kb=110.0,
    compute_efficiency=0.7,
    memory_bw_sensitivity=0.72,
    default_batch_per_gpu=32,
    activation_mb_per_image=220.0,
)

RESNET50 = ModelSpec(
    name="resnet50",
    params_millions=25.6,
    gflops_per_image=11.8,
    image_kb=110.0,
    compute_efficiency=0.35,
    memory_bw_sensitivity=0.62,
    default_batch_per_gpu=64,
    activation_mb_per_image=103.0,
)

INCEPTIONV3 = ModelSpec(
    name="inceptionv3",
    params_millions=23.9,
    gflops_per_image=17.1,
    image_kb=110.0,
    compute_efficiency=0.3,
    memory_bw_sensitivity=0.30,
    default_batch_per_gpu=64,
    activation_mb_per_image=90.0,
)

ALEXNET = ModelSpec(
    name="alexnet",
    params_millions=61.0,
    gflops_per_image=2.1,
    image_kb=110.0,
    compute_efficiency=0.6,
    memory_bw_sensitivity=0.80,
    default_batch_per_gpu=128,
    activation_mb_per_image=12.0,
)

GOOGLENET = ModelSpec(
    name="googlenet",
    params_millions=6.8,
    gflops_per_image=4.5,
    image_kb=110.0,
    compute_efficiency=0.3,
    memory_bw_sensitivity=0.35,
    default_batch_per_gpu=96,
    activation_mb_per_image=40.0,
)

MODEL_ZOO = {m.name: m for m in (VGG16, RESNET50, INCEPTIONV3, ALEXNET, GOOGLENET)}


def training_memory_mb(model, batch_per_gpu):
    """GPU memory a training process needs, MB.

    Weights + gradients + optimizer state (3x parameters, fp32) plus
    per-image stored activations times the batch — the standard quick
    estimate users apply when picking a batch size for a given card.
    """
    batch = batch_per_gpu or model.default_batch_per_gpu
    weights_mb = model.params_millions * 4.0 * 3.0
    return weights_mb + batch * model.activation_mb_per_image


def get_model(name):
    try:
        return MODEL_ZOO[name.lower()]
    except KeyError:
        raise KeyError(f"unknown model {name!r}; have {sorted(MODEL_ZOO)}") from None
