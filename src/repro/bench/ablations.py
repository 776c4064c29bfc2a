"""Ablation experiments for the design choices DESIGN.md calls out.

* checkpoint-interval tradeoff (§III.g): lost work vs write overhead;
* atomic deployment (§III.d): retry+rollback vs give-up-on-first-crash;
* ETCD status durability (§III.f): durable store vs direct push;
* GPU scheduler: bin-packing vs spread under multi-GPU jobs.
"""

from ..cluster import (
    ContainerSpec,
    KubernetesCluster,
    Pod,
    PodSpec,
    RESTART_NEVER,
)
from ..frameworks import (
    BARE_METAL,
    CheckpointPolicy,
    CheckpointStore,
    TrainingRun,
)
from ..core.events import EventRecorder
from ..grpcnet import LatencyModel, Network
from ..nfs import NfsServer
from ..objectstore import ObjectStore
from ..raftkv import EtcdClient, EtcdCluster
from ..sim import Kernel, MetricsRegistry, Tracer
from .baremetal import build_config

CREDS = {"k": "bench"}

# Checkpoint-interval tradeoff: one training job of CHECKPOINT_STEPS
# steps under exponential crashes, restarted RESTART_COST after each.
CHECKPOINT_INTERVALS = (0.0, 30.0, 120.0, 600.0)
CRASH_MTBF = 1200.0
CHECKPOINT_STEPS = 4000
RESTART_COST = 15.0
CHECKPOINT_SEED = 3
ATOMIC_DEPLOY_SEED = 5
ATTEMPT_BUDGETS = (1, 3)  # Guardian attempts per job, one row each
ETCD_VS_DIRECT_SEED = 9
SCHEDULER_SEED = 11


# ---------------------------------------------------------------------------
# Checkpoint-interval tradeoff (§III.g)
# ---------------------------------------------------------------------------


def checkpoint_tradeoff_rows():
    """Makespan of a fixed training job under random crashes, by
    checkpoint interval. Interval 0 disables checkpointing (every crash
    restarts from step zero)."""
    rows = []
    for interval in CHECKPOINT_INTERVALS:
        result = _run_with_crashes(interval)
        rows.append({
            "ckpt interval s": interval if interval else "off",
            "crashes": result["crashes"],
            "checkpoints": result["checkpoints"],
            "steps executed": result["steps_executed"],
            "wasted steps": result["steps_executed"] - CHECKPOINT_STEPS,
            "makespan s": result["makespan"],
        })
    return rows


def _race(kernel, process, timer):
    """Whether ``process`` finishes before ``timer`` fires."""
    winner, _ = yield kernel.any_of([process, timer])
    timer.cancel()
    return winner is process


def _run_with_crashes(interval):
    kernel = Kernel(seed=CHECKPOINT_SEED)
    store = ObjectStore(kernel, MetricsRegistry())
    store.create_bucket("ckpt", CREDS)
    checkpoints = CheckpointStore(store, "ckpt", "job", CREDS)
    config = build_config("resnet50", "tensorflow", "k80", 1)
    rng = kernel.rng("crash-schedule")
    crashes = 0
    executed = 0
    written = 0

    while True:
        training = TrainingRun(
            kernel, config, BARE_METAL, target_steps=CHECKPOINT_STEPS,
            checkpoint_policy=CheckpointPolicy(interval=interval),
            checkpoint_store=checkpoints if interval else None,
        )
        process = kernel.spawn(training.run())
        crash_in = rng.expovariate(1.0 / CRASH_MTBF)
        timer = kernel.sleep(crash_in)
        finished = kernel.run_until_complete(
            kernel.spawn(_race(kernel, process, timer)))
        executed += training.steps_executed
        written += training.checkpoints_written
        if finished:
            return {
                "makespan": kernel.now,
                "crashes": crashes,
                "checkpoints": written,
                "steps_executed": executed,
            }
        process.kill("injected crash")
        kernel.run(until=kernel.now + RESTART_COST)
        crashes += 1


# ---------------------------------------------------------------------------
# Atomic deployment (§III.d)
# ---------------------------------------------------------------------------


def atomic_deploy_rows(crash_probability=0.35, trials=30):
    """Probability a job ever deploys when each Guardian deployment
    attempt crashes with probability p, with and without retries.

    Analytic law: success = 1 - p^k for k attempts; the measured column
    comes from Monte Carlo draws with the simulation's RNG streams so
    the deterministic-retry machinery's accounting is exercised.
    """
    kernel = Kernel(seed=ATOMIC_DEPLOY_SEED)
    rng = kernel.rng("atomic-deploy")
    rows = []
    for budget in ATTEMPT_BUDGETS:
        successes = 0
        total_attempts = 0
        for _trial in range(trials):
            for attempt in range(1, budget + 1):
                total_attempts += 1
                if rng.random() >= crash_probability:
                    successes += 1
                    break
        rows.append({
            "attempt budget": budget,
            "crash prob": crash_probability,
            "deployed jobs": successes,
            "trials": trials,
            "success rate": successes / trials,
            "analytic": 1 - crash_probability ** budget,
        })
    return rows


# ---------------------------------------------------------------------------
# ETCD durability vs direct push (§III.f)
# ---------------------------------------------------------------------------


def etcd_vs_direct_rows(updates=40, downtime=(20.0, 50.0)):
    """Learner status updates stream while the consumer (Guardian) is
    down for a window. Durable ETCD retains every update for the
    restarted consumer; a direct push pipeline loses the window."""
    kernel = Kernel(seed=ETCD_VS_DIRECT_SEED)
    metrics = MetricsRegistry()
    network = Network(kernel, metrics, latency=LatencyModel(0.002, 0.001))
    cluster = EtcdCluster(kernel, network, metrics,
                          EventRecorder(kernel, metrics), size=3).start()
    client = EtcdClient(kernel, network, cluster)
    pushed_seen = []
    consumer_down = lambda t: downtime[0] <= t < downtime[1]

    def producer():
        yield from cluster.wait_for_leader()
        for i in range(updates):
            yield from client.put(f"status/{i}", {"seq": i})
            if not consumer_down(kernel.now):
                pushed_seen.append(i)  # direct push delivered live
            yield kernel.sleep(1.5)

    kernel.run_until_complete(kernel.spawn(producer()), limit=10_000)

    def read_back():
        kvs = yield from client.get_range("status/")
        return kvs

    durable = kernel.run_until_complete(kernel.spawn(read_back()), limit=1_000)
    return [
        {
            "pipeline": "etcd (durable, replicated)",
            "updates sent": updates,
            "visible after recovery": len(durable),
            "lost": updates - len(durable),
        },
        {
            "pipeline": "direct push (no store)",
            "updates sent": updates,
            "visible after recovery": len(pushed_seen),
            "lost": updates - len(pushed_seen),
        },
    ]


# ---------------------------------------------------------------------------
# Scheduler: bin-packing vs spread
# ---------------------------------------------------------------------------


def scheduler_rows(nodes=8, gpus_per_node=4):
    """Fragmentation resistance: fill the cluster with 1-GPU pods, then
    try to place 4-GPU pods. Bin-packing leaves whole nodes free;
    spreading fragments every node."""
    rows = []
    small_pods = nodes * gpus_per_node // 2  # half the cluster, 1 GPU each
    for strategy in ("binpack", "spread"):
        kernel = Kernel(seed=SCHEDULER_SEED)
        metrics = MetricsRegistry()
        events = EventRecorder(kernel, metrics)
        cluster = KubernetesCluster(kernel, NfsServer(kernel, metrics, events),
                                    Tracer(kernel), metrics, events)
        cluster.scheduler.strategy = strategy
        cluster.registry.register("img", 10)
        for i in range(nodes):
            cluster.add_node(f"n{i}", gpus=gpus_per_node, gpu_type="k80")
        for i in range(small_pods):
            cluster.api.create(Pod(f"small-{i}", _gpu_pod_spec(1)))
        cluster.scheduler.schedule_once()
        for i in range(nodes):
            cluster.api.create(Pod(f"big-{i}", _gpu_pod_spec(gpus_per_node)))
        cluster.scheduler.schedule_once()
        placed_big = sum(
            1 for pod in cluster.api.list("Pod")
            if pod.metadata.name.startswith("big-") and pod.node_name is not None
        )
        rows.append({
            "strategy": strategy,
            "1-GPU pods": small_pods,
            f"{gpus_per_node}-GPU pods placed": placed_big,
            f"{gpus_per_node}-GPU pods stuck": nodes - placed_big,
        })
    return rows


def _gpu_pod_spec(gpus):
    return PodSpec(
        containers=[ContainerSpec("c", "img", gpus=gpus, cpu_millicores=100)],
        restart_policy=RESTART_NEVER,
        gpu_type="k80",
    )
