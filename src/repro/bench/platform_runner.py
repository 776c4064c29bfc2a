"""End-to-end DLaaS throughput measurement through the full platform.

The DLaaS side of Figs. 2–3 runs the *whole* stack: submit through the
API, deploy through LCM/Guardian, stream data via load-data, train in a
learner container, and measure images/sec from the learner's own
start/exit trace — the same way the paper measures images processed per
second for training.
"""

from ..core import DlaasPlatform, PlatformConfig

CREDENTIALS = {"access_key": "bench", "secret": "bench"}


def build_platform(gpu_type, gpus_per_node, seed=0, gpu_nodes=2,
                   **config_overrides):
    platform = DlaasPlatform(
        seed=seed,
        config=PlatformConfig(
            gpu_nodes=gpu_nodes,
            gpus_per_node=gpus_per_node,
            gpu_type=gpu_type,
            management_nodes=2,
            **config_overrides,
        ),
    ).start()
    platform.seed_training_data("bench-data", CREDENTIALS, size_mb=200)
    platform.ensure_results_bucket("bench-results", CREDENTIALS)
    return platform


def bench_manifest(model, framework, gpus, gpu_type, steps, learners=1):
    return {
        "name": f"bench-{model}-{framework}-{gpus}g",
        "framework": framework,
        "model": model,
        "learners": learners,
        "gpus_per_learner": gpus,
        "gpu_type": gpu_type,
        "target_steps": steps,
        "batch_per_gpu": 0,  # the model's default
        # Benchmarks measure steady-state training; checkpointing off,
        # as in the paper's throughput comparisons.
        "checkpoint_interval": 0.0,
        "dataset_size_mb": 200,
        "data": {"bucket": "bench-data", "credentials": CREDENTIALS},
        "results": {"bucket": "bench-results", "credentials": CREDENTIALS},
    }


def measure_dlaas(platform, manifest):
    """Run one job through the platform; returns aggregate images/sec."""
    client = platform.client("bench")
    job_id, doc = platform.run_process(
        client.run_to_completion(manifest, timeout=100_000), limit=500_000
    )
    if doc["status"] != "COMPLETED":
        raise RuntimeError(f"benchmark job ended {doc['status']}")
    starts, ends = [], []
    for ordinal in range(manifest["learners"]):
        ready = platform.tracer.query(component=f"learner-{ordinal}",
                                      kind="component-ready", job=job_id)
        exits = platform.tracer.query(component=f"learner-{ordinal}",
                                      kind="learner-exit", job=job_id)
        starts.append(ready[0].time)
        ends.append(exits[-1].time)
    start, end = max(starts), max(ends)
    from ..frameworks import get_model

    model = get_model(manifest["model"])
    batch = manifest["batch_per_gpu"] or model.default_batch_per_gpu
    images = (manifest["target_steps"] * batch * manifest["gpus_per_learner"]
              * manifest["learners"])
    return images / (end - start)
