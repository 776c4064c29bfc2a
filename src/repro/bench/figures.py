"""Experiment implementations for every table/figure in the paper.

Each ``fig*`` function regenerates the data behind one figure of the
evaluation (§IV), returning rows with both the measured value and the
paper's reported value so reports can show them side by side.
"""

from ..core import Fault, fire, recovery_time
from .baremetal import build_config, dgx1_config, measure_bare_metal, measure_dgx1
from .platform_runner import bench_manifest, build_platform, measure_dlaas
from .scale_runner import guardian_latencies

SEED = 0  # every figure's platform and baseline kernel
STEPS = 100  # training steps per Fig. 2 / Fig. 3 measurement
FIG4_TRIALS = 5  # crashes per component
GUARDIAN_CREATION_JOBS = 8

# ---------------------------------------------------------------------------
# Fig. 2 — DLaaS vs IBM Cloud bare metal, K80
# ---------------------------------------------------------------------------

FIG2_PAPER = [
    ("vgg16", "caffe", 1, 3.29),
    ("vgg16", "caffe", 2, 0.34),
    ("vgg16", "caffe", 3, 5.88),
    ("vgg16", "caffe", 4, 5.20),
    ("inceptionv3", "tensorflow", 1, 0.32),
    ("inceptionv3", "tensorflow", 2, 4.86),
    ("inceptionv3", "tensorflow", 3, 5.15),
    ("inceptionv3", "tensorflow", 4, 1.54),
]


def fig2_rows():
    """DLaaS (full platform, containerized, K80) vs bare metal."""
    rows = []
    for model, framework, gpus, paper_pct in FIG2_PAPER:
        config = build_config(model, framework, "k80", gpus)
        baseline = measure_bare_metal(config, steps=STEPS, seed=SEED)
        platform = build_platform("k80", gpus_per_node=4, seed=SEED)
        dlaas = measure_dlaas(
            platform, bench_manifest(model, framework, gpus, "k80", STEPS)
        )
        rows.append({
            "benchmark": model,
            "framework": framework,
            "gpus": gpus,
            "bare-metal img/s": baseline,
            "dlaas img/s": dlaas,
            "measured %": (baseline - dlaas) / baseline * 100.0,
            "paper %": paper_pct,
        })
    return rows


# ---------------------------------------------------------------------------
# Fig. 3 — DLaaS (PCIe P100) vs NVidia DGX-1
# ---------------------------------------------------------------------------

FIG3_PAPER = [
    ("inceptionv3", "tensorflow", 1, 3.30),
    ("resnet50", "tensorflow", 1, 7.07),
    ("vgg16", "tensorflow", 1, 7.84),
    ("inceptionv3", "tensorflow", 2, 10.06),
    ("resnet50", "tensorflow", 2, 10.53),
    ("vgg16", "tensorflow", 2, 13.69),
]


def fig3_rows():
    rows = []
    for model, framework, gpus, paper_pct in FIG3_PAPER:
        dgx = measure_dgx1(dgx1_config(model, framework, gpus), steps=STEPS,
                           seed=SEED)
        platform = build_platform("p100-pcie", gpus_per_node=2, seed=SEED)
        dlaas = measure_dlaas(
            platform, bench_manifest(model, framework, gpus, "p100-pcie", STEPS)
        )
        rows.append({
            "benchmark": model,
            "framework": framework,
            "gpus": gpus,
            "gpu type": "P100",
            "dgx-1 img/s": dgx,
            "dlaas img/s": dlaas,
            "measured %": (dgx - dlaas) / dgx * 100.0,
            "paper %": paper_pct,
        })
    return rows


# ---------------------------------------------------------------------------
# Fig. 4 — crash-recovery time per component
# ---------------------------------------------------------------------------

FIG4_PAPER = {
    "API": (3.0, 5.0),
    "LCM": (4.0, 6.0),
    "Guardian": (1.0, 2.0),
    "Helper": (3.0, 4.0),
    "Learner": (10.0, 20.0),
}


def fig4_rows():
    """Crash each component repeatedly (kubectl-style) and measure the
    crash -> serving-again interval on the simulated clock."""
    platform = build_platform("k80", gpus_per_node=4, seed=SEED, gpu_nodes=3)
    client = platform.client("fig4")

    # A long-running job gives the guardian/helper/learner crash targets.
    manifest = bench_manifest("inceptionv3", "tensorflow", 1, "k80",
                              steps=1_000_000)
    manifest["checkpoint_interval"] = 30.0

    def submit():
        job_id = yield from client.submit(manifest)
        yield from client.wait_for_status(job_id, statuses={"PROCESSING"},
                                          timeout=5_000)
        return job_id

    job_id = platform.run_process(submit(), limit=20_000)

    experiments = [
        ("API", Fault("api"), "api", {}),
        ("LCM", Fault("lcm"), "lcm", {}),
        ("Guardian", Fault("guardian", job_id), "guardian", {"job": job_id}),
        ("Helper", Fault("helper", job_id), "controller", {"job": job_id}),
        ("Learner", Fault("learner-pod", (job_id, 0)), "learner-0",
         {"job": job_id}),
    ]

    rows = []
    for label, fault, component, match in experiments:
        samples = []
        for _trial in range(FIG4_TRIALS):
            when = platform.kernel.now
            fire(platform, fault)
            platform.run_for(45.0)  # let it recover and re-stabilize
            recovery = recovery_time(platform, component, when, **match)
            if recovery is not None:
                samples.append(recovery)
        low, high = FIG4_PAPER[label]
        rows.append({
            "component": label,
            "trials": len(samples),
            "min s": min(samples),
            "mean s": sum(samples) / len(samples),
            "max s": max(samples),
            "paper": f"{low:.0f}-{high:.0f}s",
        })
    return rows


# ---------------------------------------------------------------------------
# §III.d — Guardian creation latency (< 3s claim)
# ---------------------------------------------------------------------------


def guardian_creation_rows():
    platform = build_platform("k80", gpus_per_node=4, seed=SEED, gpu_nodes=3)
    client = platform.client("gcl")

    def submit_all():
        ids = []
        for i in range(GUARDIAN_CREATION_JOBS):
            manifest = bench_manifest("resnet50", "tensorflow", 1, "k80", steps=30)
            manifest["name"] = f"gcl-{i}"
            ids.append((yield from client.submit(manifest)))
        for job_id in ids:
            yield from client.wait_for_status(job_id, timeout=50_000)
        return ids

    platform.run_process(submit_all(), limit=500_000)

    latencies = guardian_latencies(platform)
    return [{
        "jobs": GUARDIAN_CREATION_JOBS,
        "min s": min(latencies),
        "mean s": sum(latencies) / len(latencies),
        "max s": max(latencies),
        "paper": "< 3s",
    }]
