"""Chaos soak: sustained random component failures over a workload.

The paper argues resilience mechanism by mechanism; this experiment
composes them: a batch of jobs runs to completion while a Poisson
process keeps crashing randomly chosen components (learner pods,
learner containers, helpers, Guardians, API/LCM pods, occasionally a
whole node). The dependability claim under test: *no job is ever lost*
— every submission reaches COMPLETED, at the cost of makespan
inflation bounded by checkpoint intervals and restart times.
"""

from ..core import ComponentCrasher, DlaasError
from .platform_runner import bench_manifest, build_platform


def run_soak(mtbf, jobs=4, steps=300, horizon=20_000.0, seed=17):
    """Returns a summary row for one MTBF setting (None = fault-free)."""
    platform = build_platform("k80", gpus_per_node=4, seed=seed, gpu_nodes=3)
    client = platform.client("soak")
    crasher = ComponentCrasher(platform)
    rng = platform.kernel.rng("chaos-soak")
    crash_log = []

    def submit_all():
        ids = []
        for i in range(jobs):
            manifest = bench_manifest("resnet50", "tensorflow", 1, "k80", steps)
            manifest["name"] = f"soak-{i}"
            manifest["checkpoint_interval"] = 20.0
            ids.append((yield from client.submit(manifest)))
        return ids

    job_ids = platform.run_process(submit_all(), limit=10_000)

    stop_chaos = platform.kernel.event()
    if mtbf is not None:
        platform.kernel.spawn(
            _chaos_actor(platform, crasher, rng, job_ids, mtbf, stop_chaos,
                         crash_log),
            name="chaos-actor",
        )

    def drain():
        docs = []
        for job_id in job_ids:
            docs.append((yield from client.wait_for_status(job_id,
                                                           timeout=horizon)))
        return docs

    docs = platform.run_process(drain(), limit=horizon * 3)
    if not stop_chaos.triggered:
        stop_chaos.succeed()
    return {
        "mtbf s": mtbf if mtbf is not None else "off",
        "jobs": jobs,
        "completed": sum(1 for d in docs if d["status"] == "COMPLETED"),
        "crashes injected": len(crash_log),
        "makespan s": platform.kernel.now,
    }


def _chaos_actor(platform, crasher, rng, job_ids, mtbf, stop, crash_log):
    # Weighted menu of targets, matching what actually fails in a
    # datacenter: learners (GPU boxes) most often, platform pods less so.
    menu = (
        ("learner-pod", 4),
        ("learner-container", 3),
        ("helper", 2),
        ("guardian", 2),
        ("api", 1),
        ("lcm", 1),
        ("node", 1),
    )
    choices = [kind for kind, weight in menu for _ in range(weight)]
    while not stop.triggered:
        yield platform.kernel.sleep(rng.expovariate(1.0 / mtbf))
        if stop.triggered:
            return
        kind = rng.choice(choices)
        job_id = rng.choice(job_ids)
        try:
            if kind == "learner-pod":
                crasher.crash_learner(job_id)
            elif kind == "learner-container":
                crasher.crash_learner_container(job_id)
            elif kind == "helper":
                crasher.crash_helper(job_id)
            elif kind == "guardian":
                crasher.crash_guardian(job_id)
            elif kind == "api":
                crasher.crash_api()
            elif kind == "lcm":
                crasher.crash_lcm()
            elif kind == "node":
                crasher.crash_node_of(job_id)
                # Bring the machine back after a reboot-ish delay, or
                # capacity erodes to nothing over a long soak.
                yield platform.kernel.sleep(30.0)
                for name, kubelet in platform.k8s.kubelets.items():
                    if not kubelet.alive:
                        platform.k8s.restart_node(name)
            crash_log.append((platform.kernel.now, kind, job_id))
        except DlaasError:
            # Target not present right now (job finished, pod mid-restart):
            # the chaos monkey shrugs and moves on.
            continue
