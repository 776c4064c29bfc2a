"""Training-job manifests: what users submit (paper §III.a).

"Job parameters, including the source of training data, credentials to
access training data, framework, number of learners, location where
results and logs should be stored, learning rate, etc., are specified
using a manifest file."
"""

from dataclasses import dataclass, fields

from ..frameworks import FRAMEWORKS, GPU_CATALOGUE, MODEL_ZOO
from ..frameworks.models import training_memory_mb
from .errors import InvalidManifest


@dataclass
class DataStoreRef:
    """A bucket plus the credentials to reach it."""

    bucket: str
    credentials: dict

    @classmethod
    def from_dict(cls, raw, problems, label):
        if not isinstance(raw, dict):
            problems.append(f"{label}: expected an object")
            return None
        bucket = raw.get("bucket")
        credentials = raw.get("credentials")
        if not bucket or not isinstance(bucket, str):
            problems.append(f"{label}.bucket: required string")
        if not isinstance(credentials, dict) or not credentials:
            problems.append(f"{label}.credentials: required object")
        return cls(bucket=bucket, credentials=credentials or {})

    def to_dict(self):
        return {"bucket": self.bucket, "credentials": dict(self.credentials)}


@dataclass
class TrainingManifest:
    """A validated DL training job specification."""

    name: str
    framework: str
    model: str
    learners: int
    gpus_per_learner: int
    gpu_type: str
    target_steps: int
    data: DataStoreRef
    results: DataStoreRef
    batch_per_gpu: int = 0  # 0 -> model default
    checkpoint_interval: float = 300.0
    dataset_size_mb: float = 1000.0
    learning_rate: float = 0.01
    memory_mb: int = 8192
    cpu_millicores: int = 4000

    @classmethod
    def from_dict(cls, raw):
        """Validate and build; raises :class:`InvalidManifest` with a
        complete list of problems rather than failing one at a time."""
        if not isinstance(raw, dict):
            raise InvalidManifest("manifest must be an object")
        problems = []

        # Name a key the platform does not read rather than run a job
        # that silently ignores it.
        known = {f.name for f in fields(cls)}
        for key in sorted(set(raw) - known, key=str):
            problems.append(f"{key}: unknown field")

        name = raw.get("name")
        if not name or not isinstance(name, str):
            problems.append("name: required string")

        framework = str(raw.get("framework", "")).lower()
        if framework not in FRAMEWORKS:
            problems.append(
                f"framework: {framework!r} not supported; have {sorted(FRAMEWORKS)}"
            )

        model = str(raw.get("model", "")).lower()
        if model not in MODEL_ZOO:
            problems.append(f"model: {model!r} unknown; have {sorted(MODEL_ZOO)}")

        learners = raw.get("learners", 1)
        if not isinstance(learners, int) or learners < 1:
            problems.append("learners: must be an integer >= 1")
        elif learners > 1 and framework in FRAMEWORKS \
                and not FRAMEWORKS[framework].supports_multi_node:
            problems.append(
                f"learners: framework {framework!r} does not support distributed training"
            )

        gpus = raw.get("gpus_per_learner", 1)
        if not isinstance(gpus, int) or not 1 <= gpus <= 8:
            problems.append("gpus_per_learner: must be an integer in [1, 8]")

        gpu_type = str(raw.get("gpu_type", "")).lower()
        if gpu_type not in GPU_CATALOGUE:
            problems.append(f"gpu_type: {gpu_type!r} unknown; have {sorted(GPU_CATALOGUE)}")

        target_steps = raw.get("target_steps")
        if not isinstance(target_steps, int) or target_steps < 1:
            problems.append("target_steps: required integer >= 1")

        checkpoint_interval = raw.get("checkpoint_interval", 300.0)
        if not isinstance(checkpoint_interval, (int, float)) or checkpoint_interval < 0:
            problems.append("checkpoint_interval: must be a number >= 0")

        batch = raw.get("batch_per_gpu", 0)
        if not isinstance(batch, int) or batch < 0:
            problems.append("batch_per_gpu: must be an integer >= 0 (0 = default)")

        dataset_size_mb = raw.get("dataset_size_mb", 1000.0)
        if not isinstance(dataset_size_mb, (int, float)) or dataset_size_mb <= 0:
            problems.append("dataset_size_mb: must be a positive number")

        # GPU-memory fit: reject configurations that would OOM at the
        # first training step (model + chosen batch vs the card).
        if model in MODEL_ZOO and gpu_type in GPU_CATALOGUE \
                and isinstance(batch, int) and batch >= 0:
            spec = MODEL_ZOO[model]
            gpu = GPU_CATALOGUE[gpu_type]
            required = training_memory_mb(spec, batch)
            available = gpu.memory_gb * 1024.0
            if required > available:
                effective = batch or spec.default_batch_per_gpu
                problems.append(
                    f"batch_per_gpu: {model} with batch {effective} needs "
                    f"~{required:.0f}MB but {gpu_type} has {available:.0f}MB"
                )

        data = DataStoreRef.from_dict(raw.get("data"), problems, "data")
        results = DataStoreRef.from_dict(raw.get("results"), problems, "results")

        if problems:
            raise InvalidManifest(problems)
        return cls(
            name=name,
            framework=framework,
            model=model,
            learners=learners,
            gpus_per_learner=gpus,
            gpu_type=gpu_type,
            target_steps=target_steps,
            data=data,
            results=results,
            batch_per_gpu=batch,
            checkpoint_interval=float(checkpoint_interval),
            dataset_size_mb=float(dataset_size_mb),
            learning_rate=float(raw.get("learning_rate", 0.01)),
            memory_mb=int(raw.get("memory_mb", 8192)),
            cpu_millicores=int(raw.get("cpu_millicores", 4000)),
        )

    def to_dict(self):
        return {
            "name": self.name,
            "framework": self.framework,
            "model": self.model,
            "learners": self.learners,
            "gpus_per_learner": self.gpus_per_learner,
            "gpu_type": self.gpu_type,
            "target_steps": self.target_steps,
            "batch_per_gpu": self.batch_per_gpu,
            "checkpoint_interval": self.checkpoint_interval,
            "dataset_size_mb": self.dataset_size_mb,
            "learning_rate": self.learning_rate,
            "memory_mb": self.memory_mb,
            "cpu_millicores": self.cpu_millicores,
            "data": self.data.to_dict(),
            "results": self.results.to_dict(),
        }

    @property
    def total_gpus(self):
        return self.learners * self.gpus_per_learner
