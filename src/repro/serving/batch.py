"""Elastic batch inference (AntBatchInfer-style).

A batch job scores a fixed item count partitioned into *shards*. A
coordinator owns the shard table; stateless workers (pods of an
elastic Deployment) lease shards, renew the lease while scoring, and
report completion. The three dependability properties the design
buys, per the AntBatchInfer paper:

* **crash tolerance without restart** — a worker dying mid-shard
  just lets its lease expire (or releases it in its pod teardown);
  the shard returns to PENDING and another worker picks it up. The
  batch as a whole never restarts.
* **exactly-once completion accounting** — execution is at-least-once
  (a crashed worker's half-scored shard is redone), but the first
  ``complete()`` wins: late duplicates are counted in a metric and
  otherwise ignored, so every shard is DONE exactly once.
* **mid-run elasticity** — ``scale(n)`` just patches the Deployment's
  replica count; joining workers start leasing, surplus workers are
  stopped gracefully and release their shard on the way out.

Shard state machine::

    PENDING --lease--> LEASED --complete--> DONE
       ^                  |
       +---requeue--------+   (lease expiry, worker release)
"""

from ..cluster import ContainerSpec, Deployment, PodSpec, PodTemplate, RESTART_ALWAYS
from ..frameworks import get_framework
from ..sim.periodic import Periodic
from .replica import REPLICA_INIT_TIME

LEASE_TIMEOUT = 20.0
RENEW_INTERVAL = 2.0
MONITOR_INTERVAL = 2.0  # lease-expiry sweep cadence
WAIT_POLL = 1.0  # how often ``BatchInferJob.wait`` looks at the shards

SHARD_PENDING = "PENDING"
SHARD_LEASED = "LEASED"
SHARD_DONE = "DONE"


class _Shard:
    __slots__ = ("index", "items", "state", "holder", "lease_expires",
                 "completions")

    def __init__(self, index, items):
        self.index = index
        self.items = items
        self.state = SHARD_PENDING
        self.holder = None
        self.lease_expires = None
        self.completions = 0


class BatchCoordinator:
    """The shard table plus lease bookkeeping for one batch job."""

    def __init__(self, platform, batch_id, manifest):
        self.platform = platform
        self.kernel = platform.kernel
        self.batch_id = batch_id
        self.manifest = manifest
        self.shards = []
        remaining = manifest.items
        index = 0
        while remaining > 0:
            take = min(manifest.shard_size, remaining)
            self.shards.append(_Shard(index, take))
            remaining -= take
            index += 1
        self.started_at = self.kernel.now
        self.last_completion = self.kernel.now
        self.completed = 0
        self.requeues = 0
        self.duplicates = 0
        self._waiters = []
        metrics = platform.metrics
        self._m_completed = metrics.counter(
            "batchinfer_shards_completed_total", ("batch",),
            help="Shards completed (exactly once each)")
        self._m_requeues = metrics.counter(
            "batchinfer_shard_requeues_total", ("batch",),
            help="Shards returned to PENDING after a lease was lost")
        self._m_duplicates = metrics.counter(
            "batchinfer_duplicate_completions_total", ("batch",),
            help="Late completions of already-DONE shards (ignored)")
        self._g_stalled = metrics.gauge(
            "batchinfer_stalled_seconds", ("batch",),
            help="Seconds since the last shard completion while work remains")

    # ------------------------------------------------------------------
    # Worker-facing surface
    # ------------------------------------------------------------------

    @property
    def done(self):
        return self.completed == len(self.shards)

    def lease(self, worker):
        """Claim the first PENDING shard, or None when nothing is free."""
        for shard in self.shards:
            if shard.state == SHARD_PENDING:
                shard.state = SHARD_LEASED
                shard.holder = worker
                shard.lease_expires = self.kernel.now + LEASE_TIMEOUT
                return shard
        return None

    def renew(self, shard, worker):
        if shard.state == SHARD_LEASED and shard.holder == worker:
            shard.lease_expires = self.kernel.now + LEASE_TIMEOUT

    def complete(self, shard, worker):
        """First completion wins; duplicates are accounted, not applied."""
        shard.completions += 1
        if shard.state == SHARD_DONE:
            self.duplicates += 1
            self._m_duplicates.labels(batch=self.batch_id).inc()
            return False
        shard.state = SHARD_DONE
        shard.holder = None
        self.completed += 1
        self.last_completion = self.kernel.now
        self._m_completed.labels(batch=self.batch_id).inc()
        if self.done:
            self._g_stalled.labels(batch=self.batch_id).set(0.0)
            self.platform.events.emit_event(
                "Normal", "BatchInferCompleted", "BatchInfer", self.batch_id,
                message=f"{len(self.shards)} shards done "
                        f"({self.requeues} requeues, "
                        f"{self.duplicates} duplicate completions)")
            self._wake_all()
        return True

    def release(self, worker):
        """Pod teardown fast path: requeue the worker's LEASED shards
        immediately instead of waiting out the lease clock."""
        for shard in self.shards:
            if shard.state == SHARD_LEASED and shard.holder == worker:
                self._requeue(shard, f"worker {worker} gone")

    def wait_for_work(self):
        """Event triggered on the next requeue or batch completion."""
        event = self.kernel.event(f"batch-work:{self.batch_id}")
        self._waiters.append(event)
        return event

    # ------------------------------------------------------------------
    # Monitoring (driven by the job's monitor process)
    # ------------------------------------------------------------------

    def expire_leases(self):
        now = self.kernel.now
        expired = 0
        for shard in self.shards:
            if shard.state == SHARD_LEASED and shard.lease_expires <= now:
                self._requeue(shard, f"lease expired on {shard.holder}")
                expired += 1
        stalled = 0.0 if self.done else now - max(self.last_completion,
                                                  self.started_at)
        self._g_stalled.labels(batch=self.batch_id).set(stalled)
        return expired

    def _requeue(self, shard, why):
        shard.state = SHARD_PENDING
        shard.holder = None
        shard.lease_expires = None
        self.requeues += 1
        self._m_requeues.labels(batch=self.batch_id).inc()
        self.platform.events.emit_event(
            "Warning", "BatchShardRequeued", "BatchInfer", self.batch_id,
            message=f"shard {shard.index} requeued: {why}")
        self._wake_all()

    def _wake_all(self):
        waiters, self._waiters = self._waiters, []
        for event in waiters:
            if not event.triggered:
                event.succeed()


def make_batch_worker_workload(platform, coordinator):
    """One worker pod: lease/score/complete until the table is drained.

    The lease is renewed every ``RENEW_INTERVAL`` of scoring
    time, so a healthy worker never expires mid-shard while a crashed
    one expires within one lease timeout.
    """
    manifest = coordinator.manifest

    def workload(ctx):
        kernel = ctx.kernel
        worker = ctx.pod.metadata.name
        yield kernel.sleep(REPLICA_INIT_TIME)
        try:
            while not ctx.stop_event.triggered:
                shard = coordinator.lease(worker)
                if shard is None:
                    if coordinator.done:
                        break
                    # Everything is leased elsewhere; wake on requeue.
                    yield kernel.any_of([ctx.stop_event,
                                         coordinator.wait_for_work()])
                    continue
                remaining = shard.items * manifest.item_time
                while remaining > 0:
                    step = min(RENEW_INTERVAL, remaining)
                    yield kernel.sleep(step)
                    remaining -= step
                    coordinator.renew(shard, worker)
                coordinator.complete(shard, worker)
        finally:
            coordinator.release(worker)
        # Drained: idle gracefully until the Deployment is torn down
        # (RESTART_ALWAYS would otherwise respawn a busy-looping pod).
        if not ctx.stop_event.triggered:
            yield ctx.stop_event
        return 0

    return workload


class BatchInferJob:
    """Library-level driver for one elastic batch-inference run."""

    def __init__(self, platform, batch_id, manifest):
        if platform.serving is None:
            raise RuntimeError("batch inference needs PlatformConfig(serving=True)")
        self.platform = platform
        self.kernel = platform.kernel
        self.batch_id = batch_id
        self.manifest = manifest
        self.coordinator = BatchCoordinator(platform, batch_id, manifest)
        self.deployment_name = f"batchinfer-{batch_id}"
        self._monitor = Periodic(
            self.kernel, f"batch-monitor:{batch_id}", self._expire_leases,
            MONITOR_INTERVAL)

    def start(self):
        platform = self.platform
        manifest = self.manifest
        coordinator = self.coordinator

        def spec_factory():
            return PodSpec(
                containers=[ContainerSpec(
                    "scorer", get_framework(manifest.framework).image,
                    workload=make_batch_worker_workload(platform, coordinator),
                    gpus=manifest.gpus_per_worker,
                    cpu_millicores=manifest.cpu_millicores,
                    memory_mb=manifest.memory_mb,
                )],
                restart_policy=RESTART_ALWAYS,
                node_selector={"pool": "gpu"},
                gpu_type=manifest.gpu_type,
                priority=manifest.priority,
            )

        platform.k8s.api.create(Deployment(
            self.deployment_name,
            PodTemplate(spec_factory, labels={"dlaas-batch": self.batch_id,
                                              "role": "batch-worker"}),
            replicas=manifest.workers,
            labels={"dlaas-batch": self.batch_id},
        ))
        self._monitor.start()
        return self

    def _expire_leases(self):
        self.coordinator.expire_leases()
        if self.coordinator.done:  # that pass was the final gauge reset
            self._monitor.stop()

    def scale(self, workers):
        """Mid-run elasticity: patch the worker Deployment in place."""
        workers = max(1, min(workers, self.manifest.max_workers))
        api = self.platform.k8s.api
        deployment = api.get_or_none("Deployment", self.deployment_name)
        if deployment is not None and deployment.replicas != workers:
            deployment.replicas = workers
            api.update(deployment)
        return workers

    def wait(self, timeout=100_000.0):
        """Process generator: block until every shard is DONE, then
        tear the worker Deployment down. Returns the summary."""
        deadline = self.kernel.now + timeout
        while not self.coordinator.done:
            if self.kernel.now >= deadline:
                raise TimeoutError(
                    f"batch {self.batch_id}: "
                    f"{self.coordinator.completed}/{len(self.coordinator.shards)} "
                    f"shards after {timeout}s")
            yield self.kernel.sleep(WAIT_POLL)
        api = self.platform.k8s.api
        deployment = api.get_or_none("Deployment", self.deployment_name)
        if deployment is not None and not deployment.deletion_requested:
            deployment.deletion_requested = True
            api.update(deployment)
        return self.summary()

    def summary(self):
        coordinator = self.coordinator
        return {
            "batch_id": self.batch_id,
            "shards": len(coordinator.shards),
            "completed": coordinator.completed,
            "requeues": coordinator.requeues,
            "duplicates": coordinator.duplicates,
            "makespan_s": self.kernel.now - coordinator.started_at,
            "max_completions_per_shard": max(
                s.completions for s in coordinator.shards),
        }
