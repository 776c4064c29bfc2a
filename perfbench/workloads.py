"""The four workloads: what is built, what is submitted, what is broken.

Everything the platform receives is generated here from ``--seed``:
manifests, arrival times and the fault schedule. The platform itself
only ever sees its public surface (``DlaasPlatform``, ``PlatformConfig``,
``DlaasClient``, ``ComponentCrasher``, ``GrayFailureInjector``).
"""

import random
from dataclasses import dataclass, field

from repro.core import (
    ComponentCrasher,
    DlaasError,
    DlaasPlatform,
    GrayFailureInjector,
    PlatformConfig,
)
from repro.grpcnet import RpcError

CREDENTIALS = {"access_key": "bench", "secret": "bench"}
DATA_BUCKET = "bench-data"
RESULTS_BUCKET = "bench-results"
DRAIN_SIM_S = 30.0

# The PR-10 horizontal control plane at p=4.
PARTITIONED = {"api_ring_routing": True, "lcm_replicas": 4, "lcm_slices": 8,
               "mongo_shards": 2}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: int
    gpu_nodes: int
    steps: int = 60
    gpus_per_job: int = 2
    tenants: int = 1
    config: dict = field(default_factory=dict)
    chaos: bool = False

    def quick(self):
        """The 6-job smoke shape of this workload (tests, ``--quick``)."""
        return Workload(self.name, self.why, jobs=6, gpu_nodes=4, steps=30,
                        gpus_per_job=self.gpus_per_job,
                        tenants=min(self.tenants, 3), config=self.config,
                        chaos=self.chaos)

    def params(self):
        out = {"jobs": self.jobs, "gpu_nodes": self.gpu_nodes,
               "gpus_per_node": 4, "gpu_type": "k80",
               "tenants": self.tenants, "config": dict(self.config),
               "loop": "open, simulated time" if self.chaos else "closed"}
        if self.chaos:
            out.update(steps=f"{self.steps // 8}..{self.steps}",
                       arrival_rate_per_s=CHAOS_RATE,
                       fault_start_s=FAULT_START_S,
                       fault_gap_s=FAULT_GAP_S, fault_rounds=FAULT_ROUNDS)
        else:
            out.update(steps=self.steps, gpus_per_job=self.gpus_per_job)
        return out


WORKLOADS = {w.name: w for w in (
    Workload(
        "steady",
        "24 identical 2-GPU jobs that fit the 32 GPUs at once: data plane "
        "and kernel dispatch do the work, the control plane idles; seed 2 "
        "reproduces the committed 24-job digest",
        jobs=24, gpu_nodes=8),
    Workload(
        "scale",
        "192 one-GPU jobs from 8 tenants on 48 GPUs, stock control plane: "
        "scheduler, API-server lists and work queues do the work; jobs "
        "wait for GPUs and Guardians wait for room",
        jobs=192, gpu_nodes=12, steps=10, gpus_per_job=1, tenants=8),
    Workload(
        "partitioned",
        "the same 192 jobs with ring-routed API, 4 LCMs on 8 slice leases "
        "and 2 docstore shards: the same layers used differently, p=4 "
        "beside p=1",
        jobs=192, gpu_nodes=12, steps=10, gpus_per_job=1, tenants=8,
        config=PARTITIONED),
    Workload(
        "chaos",
        "16 mixed-framework jobs arriving open-loop while every component "
        "is crashed twice, etcd loses its leader and disks stall, audit "
        "on: only here do recovery, elections and the auditor work",
        jobs=16, gpu_nodes=7, steps=400,
        config={"history_recording": True}, chaos=True),
)}


def make_platform(workload, seed):
    """The one place a platform is built, started and given its buckets."""
    platform = DlaasPlatform(
        seed=seed,
        config=PlatformConfig(gpu_nodes=workload.gpu_nodes, gpus_per_node=4,
                              gpu_type="k80", management_nodes=2,
                              **workload.config),
    ).start()
    platform.seed_training_data(DATA_BUCKET, CREDENTIALS, size_mb=200)
    platform.ensure_results_bucket(RESULTS_BUCKET, CREDENTIALS)
    return platform


def manifest(name, model, framework, gpus, steps, learners=1,
             checkpoint_interval=0.0):
    return {
        "name": name,
        "framework": framework,
        "model": model,
        "learners": learners,
        "gpus_per_learner": gpus,
        "gpu_type": "k80",
        "target_steps": steps,
        "batch_per_gpu": 0,
        "checkpoint_interval": checkpoint_interval,
        "dataset_size_mb": 200,
        "data": {"bucket": DATA_BUCKET, "credentials": CREDENTIALS},
        "results": {"bucket": RESULTS_BUCKET, "credentials": CREDENTIALS},
    }


# ----------------------------------------------------------------------
# Closed loop: steady, scale, partitioned
# ----------------------------------------------------------------------

@dataclass
class Outcome:
    """What the driver saw: one entry per attempted job, in submit order."""

    job_ids: list = field(default_factory=list)  # None where refused
    acks: list = field(default_factory=list)  # simulated s, accepted jobs
    docs: list = field(default_factory=list)  # final status documents
    first_submit: float = 0.0
    late_max: float = 0.0
    faults: list = field(default_factory=list)  # Fault records (chaos)


def drive_closed(platform, workload):
    """Submit back-to-back, then wait for every job."""
    kernel = platform.kernel
    tokens = (["perf"] if workload.tenants <= 1
              else [f"tenant-{t}" for t in range(workload.tenants)])
    clients = {token: platform.client(token) for token in tokens}
    out = Outcome(first_submit=kernel.now)

    def drive():
        owners = []
        for i in range(workload.jobs):
            client = clients[tokens[i % len(tokens)]]
            sent = kernel.now
            job_id = yield from _submit(client, manifest(
                f"perf-{i}", "resnet50", "tensorflow", workload.gpus_per_job,
                workload.steps))
            out.job_ids.append(job_id)
            if job_id is not None:
                out.acks.append(kernel.now - sent)
                owners.append((client, job_id))
        for client, job_id in owners:
            doc = yield from _wait(client, job_id)
            if doc is not None:
                out.docs.append(doc)

    platform.run_process(drive(), limit=1_000_000)
    return out


def _submit(client, job_manifest):
    """A refused submission is a failed job, not a crash of the driver."""
    try:
        return (yield from client.submit(job_manifest))
    except (DlaasError, RpcError):
        return None


def _wait(client, job_id):
    """The terminal status document, or None for a job that never got
    there (it then counts as failed)."""
    try:
        return (yield from client.wait_for_status(job_id, timeout=20_000))
    except (TimeoutError, DlaasError, RpcError):
        return None


# ----------------------------------------------------------------------
# Open loop with faults: chaos
# ----------------------------------------------------------------------

CHAOS_RATE = 0.2  # jobs per simulated second
FAULT_START_S = 40.0
FAULT_GAP_S = 12.0
FAULT_ROUNDS = 2
GRAY_DURATION_S = 5.0
ETCD_RESTART_AFTER_S = 1.5

# The repo's five-class job mix in its 4 : 3 : 2 : 1.5 : 1 proportion, as a
# fixed population of 16 — (model, framework, learners, GPUs per learner,
# steps) — listed longest job first; steps span 50..400. Fixed rather than
# drawn, so that two seeds do the same work and differ in when it arrives
# and what breaks.
CHAOS_POPULATION = (
    ("inceptionv3", "tensorflow", 1, 1, 240),
    ("vgg16", "caffe", 1, 2, 300),
    ("resnet50", "tensorflow", 1, 1, 400),
    ("resnet50", "tensorflow", 1, 4, 380),
    ("resnet50", "horovod", 2, 1, 270),
    ("resnet50", "tensorflow", 1, 1, 345),
    ("inceptionv3", "tensorflow", 1, 1, 190),
    ("resnet50", "tensorflow", 1, 1, 290),
    ("vgg16", "caffe", 1, 2, 200),
    ("inceptionv3", "tensorflow", 1, 1, 140),
    ("resnet50", "tensorflow", 1, 1, 235),
    ("resnet50", "tensorflow", 1, 1, 180),
    ("resnet50", "tensorflow", 1, 4, 160),
    ("inceptionv3", "tensorflow", 1, 1, 90),
    ("vgg16", "caffe", 1, 2, 100),
    ("resnet50", "tensorflow", 1, 1, 50),
)
CHAOS_MAX_STEPS = 400

FAULT_ROUND = ("api", "lcm", "guardian", "helper", "learner-pod",
               "learner-container", "etcd-leader", "gray")
# Crash kind -> (tracer component whose next component-ready ends the
# outage, name the recovery is reported under).
CRASHES = {"api": ("api", "api"), "lcm": ("lcm", "lcm"),
           "guardian": ("guardian", "guardian"),
           "helper": ("controller", "helper"),
           "learner-pod": ("learner-0", "learner"),
           "learner-container": ("learner-0", "learner")}
PER_JOB_FAULTS = ("guardian", "helper", "learner-pod", "learner-container")


def chaos_jobs(count, max_steps, rng):
    """``count`` (arrival offset, manifest) pairs.

    Jobs arrive in population order, so the long ones are under way
    before the faults start and the later, shorter ones are the "most
    recently started" that the per-job faults hit. The seed draws the
    arrival times: ``count`` arrivals of a Poisson process of rate
    CHAOS_RATE, conditioned on falling inside ``count / CHAOS_RATE``
    seconds (that is, sorted uniforms).
    """
    window = count / CHAOS_RATE
    arrivals = sorted(rng.uniform(0.0, window) for _ in range(count))
    jobs = []
    for i, at in enumerate(arrivals):
        model, framework, learners, gpus, steps = CHAOS_POPULATION[
            i * len(CHAOS_POPULATION) // count]
        steps = max(1, steps * max_steps // CHAOS_MAX_STEPS)
        jobs.append((at, manifest(f"chaos-{i}", model, framework, gpus, steps,
                                  learners=learners,
                                  checkpoint_interval=20.0)))
    return jobs


@dataclass
class Fault:
    kind: str
    due: float  # simulated s after the first arrival is due
    pick: int  # which eligible job a per-job fault hits
    time: float = None  # when it fired; None = skipped, no target
    job: str = None
    recovery: float = None


def fault_schedule(rng):
    faults = []
    due = FAULT_START_S
    for _ in range(FAULT_ROUNDS):
        for kind in FAULT_ROUND:
            faults.append(Fault(kind, due, rng.randrange(3)))
            due += FAULT_GAP_S
    return faults


def drive_chaos(platform, workload, seed):
    kernel = platform.kernel
    rng = random.Random(f"perfbench:chaos:{seed}")
    jobs = chaos_jobs(workload.jobs, workload.steps, rng)
    faults = fault_schedule(rng)
    client = platform.client("chaos")
    crasher = ComponentCrasher(platform)
    start = kernel.now
    out = Outcome(first_submit=start + jobs[0][0], faults=faults)
    out.job_ids = [None] * len(jobs)
    out.acks = [None] * len(jobs)
    out.docs = [None] * len(jobs)

    def one_job(index, offset, job_manifest):
        # One process per job: a slow ack never delays a later arrival.
        yield kernel.sleep(offset)
        due = start + offset
        out.late_max = max(out.late_max, kernel.now - due)
        job_id = yield from _submit(client, job_manifest)
        if job_id is None:
            return
        out.job_ids[index] = job_id
        out.acks[index] = kernel.now - due
        out.docs[index] = yield from _wait(client, job_id)

    def nemesis():
        gray = GrayFailureInjector(platform)
        for fault in faults:
            yield kernel.sleep(start + fault.due - kernel.now)
            _fire(platform, crasher, gray, fault,
                  [j for j in out.job_ids if j is not None])

    # The nemesis is waited for too: if it dies, the run dies with it
    # instead of quietly injecting nothing.
    processes = [kernel.spawn(nemesis(), name="perfbench-nemesis")]
    processes += [kernel.spawn(one_job(i, at, m), name=f"perfbench-job-{i}")
                  for i, (at, m) in enumerate(jobs)]

    def wait_all():
        yield kernel.all_of(processes)

    platform.run_process(wait_all(), limit=1_000_000)
    for fault in faults:
        if fault.time is not None and fault.kind in CRASHES:
            match = {"job": fault.job} if fault.job else {}
            fault.recovery = crasher.recovery_time(
                CRASHES[fault.kind][0], fault.time, **match)
    out.acks = [a for a in out.acks if a is not None]
    out.docs = [d for d in out.docs if d is not None]
    return out


def training_jobs(platform, job_ids):
    """Submitted jobs whose first learner is training right now, most
    recently started first.

    Training means: the learner's latest trace record is its
    ``component-ready`` and the container that emitted it is still the
    one running (a crashed learner emits no exit record, so the pod has
    to be asked too).
    """
    started = []
    for job_id in job_ids:
        records = [r for r in platform.tracer.query(component="learner-0",
                                                    job=job_id)
                   if r.kind in ("component-ready", "learner-exit")]
        if not records or records[-1].kind != "component-ready":
            continue
        pods = platform.k8s.kubectl.get_pods(
            selector={"dlaas-job": job_id, "role": "learner"})
        for pod in pods:
            status = pod.container_statuses.get("learner")
            if (pod.metadata.name.endswith("-0") and pod.phase == "Running"
                    and not pod.deletion_requested
                    and status is not None and status.state == "running"
                    and status.started_at <= records[-1].time):
                started.append((records[0].time, job_id))
                break
    return [job_id for _time, job_id in sorted(started, reverse=True)]


def _fire(platform, crasher, gray, fault, job_ids):
    kernel = platform.kernel
    kind = fault.kind
    if kind in PER_JOB_FAULTS:
        eligible = training_jobs(platform, job_ids)
        if not eligible:
            return  # recorded as skipped: fault.time stays None
        fault.job = eligible[fault.pick % len(eligible)]
    if kind == "api":
        crasher.crash_api()
    elif kind == "lcm":
        crasher.crash_lcm()
    elif kind == "guardian":
        crasher.crash_guardian(fault.job)
    elif kind == "helper":
        crasher.crash_helper(fault.job)
    elif kind == "learner-pod":
        crasher.crash_learner(fault.job)
    elif kind == "learner-container":
        crasher.crash_learner_container(fault.job)
    elif kind == "etcd-leader":
        leader = platform.etcd.crash_leader()
        if leader is None:
            return

        def restart():
            yield kernel.sleep(ETCD_RESTART_AFTER_S)
            leader.restart()

        kernel.spawn(restart(), name="perfbench-etcd-restart")
    elif kind == "gray":
        # Both stay under the stores' own RPC deadlines: slow, not dead.
        gray.disk_stall_etcd(gray.etcd_followers()[0], delay=0.04,
                             duration=GRAY_DURATION_S)
        gray.slow_endpoint(gray.mongo_secondaries()[0], extra_latency=0.03,
                           duration=GRAY_DURATION_S)
    fault.time = kernel.now


def drive(platform, workload, seed):
    """Run the workload to completion plus the drain; returns Outcome."""
    if workload.chaos:
        out = drive_chaos(platform, workload, seed)
    else:
        out = drive_closed(platform, workload)
    platform.run_for(DRAIN_SIM_S)
    return out
