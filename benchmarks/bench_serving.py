"""Serving-workload bench: SLO attainment, autoscaler reaction, batch.

Measures the elastic-serving subsystem (``repro.serving``) end to end
on the simulated platform:

1. **Steady diurnal** — a model with a fixed replica pair under a
   sinusoidal day (base 20 -> peak 40 req/s) must hold its p99 SLO for
   >= 99% of requests.
2. **Burst reaction** — a model allowed 1..4 replicas under a flash
   crowd (10 -> 120 req/s). Measures the autoscaler's reaction chain:
   first SLO breach -> first scale-up -> windowed p99 back inside the
   SLO, and asserts the ``ServingSLOBreach`` alert fired and resolved.
3. **Elastic batch inference** — a sharded scoring job whose workers
   are crashed mid-run completes every shard exactly once without the
   batch restarting.

With serving *disabled* (the default) the subsystem costs nothing: the
training-only smoke timeline is pinned by
``tests/integration/test_timeline_pin.py``.

Invoke directly for the full measurement (updates the ``serving``
section of ``BENCH_perf.json``)::

    PYTHONPATH=src python benchmarks/bench_serving.py

``make check`` runs the shortened scenarios under the same assertions::

    PYTHONPATH=src python -m pytest benchmarks -k smoke
"""

import json
import sys

from conftest import write_section

from repro import DlaasPlatform
from repro.core import PlatformConfig
from repro.serving import (
    SHARD_LEASED,
    BatchInferJob,
    BatchInferManifest,
    BurstProfile,
    DiurnalProfile,
    TrafficGenerator,
)
from repro.serving.autoscaler import QUEUE_HIGH

ATTAINMENT_TARGET = 0.99
# Breach -> first scale-up must fit one autoscale pass plus cooldown
# slack; breach -> p99 back inside the SLO additionally pays replica
# boot and the latency window draining slow samples.
REACTION_LIMIT_S = 10.0
RECOVERY_LIMIT_S = 45.0

MODEL = {
    "name": "bench-model",
    "framework": "tensorflow",
    "model": "resnet50",
    "gpu_type": "k80",
    "slo_p99": 0.25,
}

BATCH = {
    "name": "bench-batch",
    "framework": "tensorflow",
    "model": "resnet50",
    "gpu_type": "k80",
    "items": 4000,
    "shard_size": 100,
    "workers": 3,
    "max_workers": 6,
    "item_time": 0.01,
}


def build_platform(seed=13):
    platform = DlaasPlatform(
        seed=seed,
        config=PlatformConfig(gpu_nodes=4, gpus_per_node=4,
                              management_nodes=2, serving=True),
    )
    platform.start()
    return platform


def _deploy_model(platform, **overrides):
    client = platform.client("bench")
    manifest = dict(MODEL)
    manifest.update(overrides)

    def scenario():
        model_id = yield from client.create_model(manifest)
        yield from client.wait_for_model_ready(
            model_id, replicas=manifest.get("min_replicas", 1), timeout=300.0)
        return model_id

    return platform.run_process(scenario(), limit=10_000)


def run_steady(duration=480.0, seed=13):
    """Two diurnal cycles against a fixed replica pair."""
    platform = build_platform(seed)
    model_id = _deploy_model(platform, min_replicas=2, max_replicas=2)
    profile = DiurnalProfile(base_rate=20.0, peak_rate=40.0, period=240.0)
    generator = TrafficGenerator(platform, model_id, profile)
    platform.run_process(generator.run(duration), limit=duration * 10)
    platform.run_for(10.0)  # drain in-flight work
    stats = platform.serving.stats(model_id)
    attainment = platform.serving.slo_attainment(model_id)
    return {
        "profile": "diurnal 20->40 req/s, period 240s",
        "duration_s": duration,
        "replicas": 2,
        "requests": generator.sent,
        "completed": stats["completed"],
        "attainment": round(attainment, 5),
        "window_p99_s": round(stats["window_p99"], 4),
    }


def run_burst(seed=13):
    """Flash crowd against an autoscaled 1..4-replica model."""
    platform = build_platform(seed)
    model_id = _deploy_model(platform, min_replicas=1, max_replicas=4)
    slo = MODEL["slo_p99"]
    profile = BurstProfile(base_rate=10.0, burst_rate=200.0,
                           burst_start=60.0, burst_duration=90.0)
    generator = TrafficGenerator(platform, model_id, profile)
    samples = []

    def sampler():
        end = platform.kernel.now + 240.0
        while platform.kernel.now < end:
            stats = platform.serving.stats(model_id)
            samples.append((platform.kernel.now, stats["replicas"],
                            stats["window_p99"], stats["queue_depth"]))
            yield platform.kernel.sleep(0.5)

    platform.kernel.spawn(generator.run(200.0), name="burst-traffic")
    platform.run_process(sampler(), limit=10_000)

    def breached(replicas, p99, queue_depth):
        # The autoscaler's own breach condition (latency OR backlog).
        return ((p99 is not None and p99 > slo)
                or queue_depth > QUEUE_HIGH * max(replicas, 1))

    t_breach = next((t for t, r, p99, qd in samples
                     if breached(r, p99, qd)), None)
    scale_up = platform.events.get("Normal", "ServingScaleUp",
                                   "Model", model_id)
    t_scaled = scale_up.first_time if scale_up is not None else None
    t_recovered = None
    if t_scaled is not None:
        t_recovered = next((t for t, r, p99, qd in samples
                            if t > t_scaled and not breached(r, p99, qd)),
                           None)
    peak_replicas = max(r for _t, r, _p, _q in samples)
    breach_alert = platform.events.get("Warning", "ServingSLOBreach",
                                       "Model", model_id)
    resolved = platform.events.get("Normal", "AlertResolved",
                                   "Model", model_id)
    return {
        "profile": "burst 10->200 req/s for 90s",
        "breach_at_s": None if t_breach is None else round(t_breach, 2),
        "scaled_at_s": None if t_scaled is None else round(t_scaled, 2),
        "recovered_at_s":
            None if t_recovered is None else round(t_recovered, 2),
        "reaction_s": (None if None in (t_breach, t_scaled)
                       else round(t_scaled - t_breach, 2)),
        "recovery_s": (None if None in (t_breach, t_recovered)
                       else round(t_recovered - t_breach, 2)),
        "peak_replicas": peak_replicas,
        "attainment": round(platform.serving.slo_attainment(model_id), 5),
        "slo_alert_fired": breach_alert is not None,
        "slo_alert_resolved": resolved is not None,
    }


def run_batch_crash(seed=13, crashes=2):
    """Sharded scoring with workers crashed mid-run."""
    platform = build_platform(seed)
    manifest = BatchInferManifest.from_dict(BATCH)
    job = BatchInferJob(platform, "bench-batch", manifest).start()

    def scenario():
        coordinator = job.coordinator
        for _ in range(crashes):
            # Kill a worker that actually holds a lease, so every crash
            # exercises the requeue path (early on, pods are still
            # pulling images and hold nothing).
            while not coordinator.done:
                holders = {s.holder for s in coordinator.shards
                           if s.state == SHARD_LEASED}
                pods = [p for p in platform.k8s.api.list(
                            "Pod", selector={"dlaas-batch": job.batch_id})
                        if p.phase == "Running"
                        and p.metadata.name in holders]
                if pods:
                    platform.k8s.kubectl.delete_pod(pods[0].metadata.name,
                                                    force=True)
                    break
                yield platform.kernel.sleep(2.0)
        summary = yield from job.wait(timeout=10_000.0)
        return summary

    summary = platform.run_process(scenario(), limit=100_000)
    summary["crashes_injected"] = crashes
    return summary


def assert_serving(result):
    steady = result["steady"]
    assert steady["attainment"] >= ATTAINMENT_TARGET, (
        f"steady diurnal SLO attainment {steady['attainment']} below "
        f"{ATTAINMENT_TARGET}")
    burst = result["burst"]
    assert burst["reaction_s"] is not None, (
        f"autoscaler never reacted to the burst: {burst}")
    assert 0 <= burst["reaction_s"], (
        f"scale-up recorded before the breach (measurement bug): {burst}")
    assert burst["reaction_s"] <= REACTION_LIMIT_S, (
        f"breach -> scale-up took {burst['reaction_s']}s "
        f"(limit {REACTION_LIMIT_S}s)")
    assert burst["recovery_s"] is not None, (
        f"p99 never recovered after scale-up: {burst}")
    assert burst["recovery_s"] <= RECOVERY_LIMIT_S, (
        f"breach -> recovered took {burst['recovery_s']}s "
        f"(limit {RECOVERY_LIMIT_S}s)")
    assert burst["peak_replicas"] >= 2, burst
    assert burst["slo_alert_fired"] and burst["slo_alert_resolved"], burst
    batch = result["batch"]
    assert batch["completed"] == batch["shards"], batch
    assert batch["max_completions_per_shard"] == 1, (
        f"a shard was applied more than once: {batch}")
    assert batch["requeues"] >= 1, (
        f"worker crashes never exercised the requeue path: {batch}")
    return result


def run_full():
    return {
        "steady": run_steady(),
        "burst": run_burst(),
        "batch": run_batch_crash(),
    }


def test_serving_smoke():
    """``make check`` entry: shortened scenarios, same invariants."""
    assert_serving({
        "steady": run_steady(duration=240.0),
        "burst": run_burst(),
        "batch": run_batch_crash(crashes=1),
    })


def test_serving_gate():
    """Benchmark-suite entry: full serving measurement + invariants."""
    result = assert_serving(run_full())
    print(json.dumps(result, indent=2))


def main():
    result = assert_serving(run_full())
    print(json.dumps(result, indent=2))
    write_section("serving", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
