"""Workload generation: synthetic job mixes with stochastic arrivals.

Cluster-level experiments need realistic demand, not one hand-written
manifest. A :class:`JobMix` describes the population (weighted job
classes spanning models, frameworks and GPU shapes, as a shared DL
platform sees); :class:`WorkloadGenerator` draws manifests from it
deterministically and can submit them as a Poisson arrival process.
"""

from dataclasses import dataclass, field

# Every class's training length is drawn from [MIN_STEPS, MAX_STEPS];
# every job checkpoints each CHECKPOINT_INTERVAL s on GPU_TYPE.
MIN_STEPS = 50
MAX_STEPS = 400
CHECKPOINT_INTERVAL = 60.0
GPU_TYPE = "k80"
RNG_STREAM = "workload-generator"


@dataclass(frozen=True)
class JobClass:
    """One stratum of the job population."""

    name: str
    weight: float
    model: str
    framework: str
    learners: int = 1
    gpus_per_learner: int = 1


# A plausible shared-cluster mix: mostly small single-GPU jobs, some
# multi-GPU, a few distributed, echoing the paper's 1-4 GPU evaluation
# range.
DEFAULT_MIX = (
    JobClass("small-resnet", 4.0, "resnet50", "tensorflow"),
    JobClass("small-inception", 3.0, "inceptionv3", "tensorflow"),
    JobClass("caffe-vgg", 2.0, "vgg16", "caffe", gpus_per_learner=2),
    JobClass("quad-gpu", 1.5, "resnet50", "tensorflow", gpus_per_learner=4),
    JobClass("distributed", 1.0, "resnet50", "horovod", learners=2),
)


@dataclass
class WorkloadGenerator:
    """Deterministic manifest factory over a job mix."""

    platform: object
    data_bucket: str
    results_bucket: str
    credentials: dict
    mix: tuple = field(default=DEFAULT_MIX, init=False)
    _counter: int = field(default=0, init=False)

    def _rng(self):
        return self.platform.kernel.rng(RNG_STREAM)

    def _pick_class(self):
        rng = self._rng()
        total = sum(job_class.weight for job_class in self.mix)
        point = rng.random() * total
        for job_class in self.mix:
            point -= job_class.weight
            if point <= 0:
                return job_class
        return self.mix[-1]

    def next_manifest(self):
        """Draw one job manifest from the mix."""
        job_class = self._pick_class()
        rng = self._rng()
        self._counter += 1
        steps = rng.randint(MIN_STEPS, MAX_STEPS)
        return {
            "name": f"{job_class.name}-{self._counter}",
            "framework": job_class.framework,
            "model": job_class.model,
            "learners": job_class.learners,
            "gpus_per_learner": job_class.gpus_per_learner,
            "gpu_type": GPU_TYPE,
            "target_steps": steps,
            "checkpoint_interval": CHECKPOINT_INTERVAL,
            "dataset_size_mb": 200,
            "data": {"bucket": self.data_bucket, "credentials": dict(self.credentials)},
            "results": {"bucket": self.results_bucket,
                        "credentials": dict(self.credentials)},
        }

    def poisson_arrivals(self, client, count, rate):
        """Process generator: submit ``count`` jobs at ``rate`` jobs/sec
        (exponential inter-arrivals); returns the submitted job ids."""
        if rate <= 0:
            raise ValueError("arrival rate must be positive")
        rng = self._rng()
        job_ids = []
        for _ in range(count):
            yield self.platform.kernel.sleep(rng.expovariate(rate))
            manifest = self.next_manifest()
            job_ids.append((yield from client.submit(manifest)))
        return job_ids
