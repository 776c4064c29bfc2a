"""Chaos soak: sustained random component failures over a workload.

The paper argues resilience mechanism by mechanism; this experiment
composes them: a batch of jobs runs to completion while a Poisson
process keeps firing randomly chosen crash ``Fault``s
(``repro.core.faults``) at randomly chosen jobs: learner pods, learner
containers, helpers, Guardians, API/LCM pods, occasionally a whole
node. The dependability claim under test: *no job is ever lost* —
every submission reaches COMPLETED, at the cost of makespan inflation
bounded by checkpoint intervals and restart times.
"""

from ..core import DlaasError, Fault, fire
from .platform_runner import bench_manifest, build_platform

# Fault kinds, each as often as it fails in a datacenter: learners
# (GPU boxes) most often, platform pods less so.
CHOICES = (("learner-pod",) * 4 + ("learner-container",) * 3
           + ("helper",) * 2 + ("guardian",) * 2 + ("api", "lcm", "node"))
# A crashed machine comes back after a reboot-ish delay, or capacity
# erodes to nothing over a long soak; the actor waits it out.
NODE_REBOOT_S = 30.0
JOBS = 4  # checkpointing jobs per soak
STEPS = 300  # training steps per job
HORIZON = 20_000.0  # simulated seconds a job may take
SEED = 17


def run_soak(mtbf):
    """Returns a summary row for one MTBF setting (None = fault-free)."""
    platform = build_platform("k80", gpus_per_node=4, seed=SEED, gpu_nodes=3)
    client = platform.client("soak")
    rng = platform.kernel.rng("chaos-soak")
    fault_log = []  # (time, Fault) of every fault that hit

    def submit_all():
        ids = []
        for i in range(JOBS):
            manifest = bench_manifest("resnet50", "tensorflow", 1, "k80", STEPS)
            manifest["name"] = f"soak-{i}"
            manifest["checkpoint_interval"] = 20.0
            ids.append((yield from client.submit(manifest)))
        return ids

    job_ids = platform.run_process(submit_all(), limit=10_000)

    stop_chaos = platform.kernel.event()
    if mtbf is not None:
        platform.kernel.spawn(
            _chaos_actor(platform, rng, job_ids, mtbf, stop_chaos, fault_log),
            name="chaos-actor",
        )

    def drain():
        docs = []
        for job_id in job_ids:
            docs.append((yield from client.wait_for_status(job_id,
                                                           timeout=HORIZON)))
        return docs

    docs = platform.run_process(drain(), limit=HORIZON * 3)
    if not stop_chaos.triggered:
        stop_chaos.succeed()
    return {
        "mtbf s": mtbf if mtbf is not None else "off",
        "jobs": JOBS,
        "completed": sum(1 for d in docs if d["status"] == "COMPLETED"),
        "crashes injected": len(fault_log),
        "makespan s": platform.kernel.now,
    }


def _chaos_actor(platform, rng, job_ids, mtbf, stop, fault_log):
    while not stop.triggered:
        yield platform.kernel.sleep(rng.expovariate(1.0 / mtbf))
        if stop.triggered:
            return
        kind = rng.choice(CHOICES)
        job_id = rng.choice(job_ids)
        target = {"api": None, "lcm": None, "learner-pod": (job_id, 0)}.get(
            kind, job_id)
        fault = Fault(kind, target,
                      duration=NODE_REBOOT_S if kind == "node" else None)
        try:
            fire(platform, fault)
        except DlaasError:
            # Target not present right now (job finished, pod mid-restart):
            # the chaos monkey shrugs and moves on.
            continue
        if kind == "node":
            yield platform.kernel.sleep(NODE_REBOOT_S)
        fault_log.append((platform.kernel.now, fault))
