"""The Guardian: per-job deployer and monitor (paper §III.d–f).

The Guardian is a DLaaS component created on the fly *as a Kubernetes
Job* for every DL job. Creating it is a single quick step; the Guardian
then performs the multi-step deployment (volume claim, network policy,
helper pod, learner StatefulSet). Because it runs as a K8S Job,
Kubernetes guarantees to restart it on any crash; the restarted
Guardian rolls back the partially deployed job (using a write-ahead
record in ETCD) and deploys afresh, up to ``MAX_DEPLOY_ATTEMPTS``
attempts, after which it marks the job FAILED in MongoDB.

Once deployment succeeds, the Guardian monitors: it aggregates the
per-learner statuses the controller records in ETCD and writes the
overall job status to MongoDB, handles user-initiated halts, triggers
teardown, and exits (completing the K8S Job) when the DL job reaches a
terminal state.
"""

from ..cluster import (
    ContainerSpec,
    Deployment,
    NetworkPolicy,
    PersistentVolumeClaim,
    PodSpec,
    PodTemplate,
    RESTART_ALWAYS,
    StatefulSet,
)
from ..raftkv import EtcdClient
from ..sim import Reconciler
from . import layout
from .helpers import (
    HELPER_DONE,
    make_controller_workload,
    make_load_data_workload,
    make_log_collector_workload,
    make_store_results_workload,
)
from .learner import make_learner_workload
from .manifest import TrainingManifest
from .states import (
    COMPLETED,
    DEPLOYING,
    FAILED,
    HALTED,
    PROCESSING,
    STORING,
    TERMINAL_EVENT_FOR,
    aggregate_job_status,
    is_terminal,
    validate_transition,
)

# The deployment steps in order (torn down in reverse): the step's name
# in the write-ahead deployment log, and the resource it creates.
DEPLOY_STEPS = (
    ("pvc", "PersistentVolumeClaim", layout.pvc_name),
    ("networkpolicy", "NetworkPolicy", layout.network_policy_name),
    ("helper", "Deployment", layout.helper_deployment_name),
    ("learners", "StatefulSet", layout.learner_set_name),
)

GUARDIAN_INIT_TIME = 0.55  # pod boot (drives the Fig. 4 recovery band)
GUARDIAN_STEP_TIME = 0.15  # cost of one deployment step
MONITOR_INTERVAL = 1.0  # status resync (watch-driven between ticks)
CLUSTER_WAIT_TIMEOUT = 60.0  # bound on one teardown or rollback wait
# Progress-only etcd events are batched over this window so a chatty
# learner does not cost one snapshot read per step.
GUARDIAN_EVENT_COALESCE = 0.25
# Level-triggered fallback cadences of the rollback/teardown waits.
GUARDIAN_ROLLBACK_RESYNC = 0.2
GUARDIAN_TEARDOWN_RESYNC = 0.5
# Deployment attempts before the job is marked FAILED (§III.d).
MAX_DEPLOY_ATTEMPTS = 3
# A learner the controller reports STALLED is restarted at most once
# per this many seconds.
STALL_RESTART_COOLDOWN = 60.0


def _is_transition_event(event):
    """Does this etcd event warrant an *immediate* status aggregation?

    Halt requests, helper-status flips and learner terminal/stalled
    reports can change the aggregate job status; bare step-progress
    reports cannot and may coalesce. Anything unrecognized counts as a
    transition — misclassifying toward "immediate" costs one extra
    aggregation, the other way costs detection latency.
    """
    if event.type != "put":
        return True
    key = event.key
    if key.endswith("/halt") or "/helper/" in key:
        return True
    value = event.value
    if isinstance(value, dict) and "status" in value:
        return value["status"] in (COMPLETED, FAILED, HALTED, "STALLED")
    return True


def make_guardian_workload(platform, job_id):
    """Workload factory for the Guardian's K8S Job pod template."""

    def workload(ctx):
        guardian = Guardian(platform, job_id, ctx)
        result = yield from guardian.run()
        return result

    return workload


class Guardian:
    """One Guardian incarnation (one pod of the guardian K8S Job)."""

    def __init__(self, platform, job_id, ctx):
        self.platform = platform
        self.job_id = job_id
        self.ctx = ctx
        self.kernel = ctx.kernel
        self.k8s = platform.k8s.api
        self.etcd = EtcdClient(self.kernel, platform.network, platform.etcd,
                               client_id=f"guardian-{job_id}-{ctx.pod.metadata.uid}",
                               history=platform.history)
        self.mongo = platform.mongo_client(f"guardian-{job_id}")
        self.manifest = None
        self.span = None
        self._last_reports = []
        self._stall_restarts = {}  # ordinal -> last restart time
        self._confirmed = None  # status Mongo last showed this incarnation

    # ------------------------------------------------------------------

    def run(self):
        tracer = self.platform.tracer
        parent = (tracer.context_of(("job-deploy", self.job_id))
                  or tracer.context_of(("job", self.job_id)))
        self.span = tracer.start_span("guardian.run", component="guardian",
                                      parent=parent, job=self.job_id)
        # Helper containers and learners created by this incarnation
        # parent on the Guardian span via the correlation registry.
        tracer.bind(("job-run", self.job_id), self.span.context)
        try:
            result = yield from self._run()
        except BaseException:
            self.span.end("error")
            raise
        self.span.end("ok")
        if result == 0:
            # Exit 0 completes the K8S Job: the DL job is terminal and
            # torn down, and no later incarnation will look for a
            # parent. A crashed or stopped Guardian leaves the bindings
            # for its successor.
            for stage in ("job", "job-deploy", "job-run"):
                tracer.unbind((stage, self.job_id))
        return result

    def _run(self):
        yield self.kernel.sleep(GUARDIAN_INIT_TIME)
        self.platform.tracer.emit("guardian", "component-ready", job=self.job_id)

        doc = yield from self.mongo.find_one("jobs", {"job_id": self.job_id},
                                             projection=["status", "manifest"])
        if doc is None:
            return 1
        if is_terminal(doc["status"]):
            return 0
        self.manifest = TrainingManifest.from_dict(doc["manifest"])

        deploy_span = self.platform.tracer.start_span(
            "guardian.deploy", component="guardian", parent=self.span,
            job=self.job_id)
        try:
            deployed = yield from self._recover_and_deploy()
        except BaseException:
            deploy_span.end("error")
            raise
        deploy_span.end("ok" if deployed else "failed")
        if not deployed:
            return 0  # job marked FAILED; K8S Job completes
        monitor_span = self.platform.tracer.start_span(
            "guardian.monitor", component="guardian", parent=self.span,
            job=self.job_id)
        try:
            result = yield from self._monitor()
        except BaseException:
            monitor_span.end("error")
            raise
        monitor_span.end("ok")
        return result

    # ------------------------------------------------------------------
    # Atomic deployment with rollback (§III.d)
    # ------------------------------------------------------------------

    def _recover_and_deploy(self):
        # A predecessor that finished deploying left a completion
        # marker: the job is healthy and running, so a Guardian crash
        # during *monitoring* must not redeploy anything (§III.d only
        # rolls back crashes "in the middle of a job deployment").
        complete = yield from self.etcd.get(layout.guardian_complete_key(self.job_id))
        if complete:
            return True

        # Roll back whatever a crashed predecessor left behind.
        leftovers = yield from self.etcd.get_range(
            layout.guardian_deployed_prefix(self.job_id)
        )
        if leftovers:
            self.platform.metrics.counter("guardian_deploy_rollbacks_total").inc()
            self.platform.events.emit_event(
                "Warning", "DeployRollback", "Job", self.job_id,
                message=f"rolling back {len(leftovers)} partially deployed resources",
                job=self.job_id)
            yield from self._teardown()
            yield from self._await_rollback_complete()

        attempt = (yield from self.etcd.get(layout.guardian_attempt_key(self.job_id))) or 0
        attempt += 1
        yield from self.etcd.put(layout.guardian_attempt_key(self.job_id), attempt)
        self.platform.metrics.counter("guardian_deploy_attempts_total").inc()
        if attempt > MAX_DEPLOY_ATTEMPTS:
            self.platform.events.emit_event(
                "Warning", "DeployAttemptsExhausted", "Job", self.job_id,
                message=f"attempt {attempt} exceeds limit {MAX_DEPLOY_ATTEMPTS}",
                job=self.job_id)
            yield from self._set_status(FAILED,
                                        reason="deployment attempts exhausted")
            # Deploy-exhausted jobs never reach _finish; report the
            # terminal status here so the event log stays complete.
            self.platform.events.emit_event(
                "Warning", "JobFailed", "Job", self.job_id,
                message="deployment attempts exhausted", job=self.job_id)
            yield from self._cleanup_etcd()
            return False
        if attempt > 1:
            self.platform.events.emit_event(
                "Normal", "DeployRetry", "Job", self.job_id,
                message=f"deployment attempt {attempt}", job=self.job_id)

        yield from self._set_status(DEPLOYING)
        yield from self._deploy()
        yield from self.etcd.put(layout.guardian_complete_key(self.job_id), True)
        self.platform.tracer.emit("guardian", "deployed", job=self.job_id,
                                  attempt=attempt)
        self.platform.events.emit_event(
            "Normal", "Deployed", "Job", self.job_id,
            message=f"deployed on attempt {attempt}", job=self.job_id)
        return True

    def _await_rollback_complete(self):
        """Wait until the rolled-back resources are actually gone.

        Teardown only *requests* deletion; redeploying same-named
        resources before the old ones finish terminating would conflict
        and burn a deployment attempt for no reason. Wakes on the
        API-server events of the job's StatefulSet, Deployment and their
        pods; ``GUARDIAN_ROLLBACK_RESYNC`` is the periodic fallback
        cadence.
        """
        owners = self._workload_owners()

        def gone():
            return not (any(self.k8s.exists(kind, name) for kind, name in owners)
                        or self._workload_pods())

        pods = [("Pod", owner) for owner in owners]
        themselves = [(owner[0], owner) for owner in owners]
        return (yield from self._await_cluster(
            gone, pods + themselves, resync=GUARDIAN_ROLLBACK_RESYNC))

    def _await_pods_gone(self):
        """Wait for the job's pods to actually terminate before cleaning
        ETCD: a still-running controller would otherwise re-publish
        statuses into keys we just deleted. Wakes on the job's own Pod
        events, with ``GUARDIAN_TEARDOWN_RESYNC`` as the fallback."""

        def pods_gone():
            return not self._workload_pods()

        pods = [("Pod", owner) for owner in self._workload_owners()]
        return (yield from self._await_cluster(
            pods_gone, pods, resync=GUARDIAN_TEARDOWN_RESYNC))

    def _workload_owners(self):
        """The (kind, name) of the job's learner StatefulSet and helper
        Deployment: the owners of every pod the job runs."""
        job_id = self.job_id
        return (("StatefulSet", layout.learner_set_name(job_id)),
                ("Deployment", layout.helper_deployment_name(job_id)))

    def _workload_pods(self):
        """The job's learner and helper pods still in the API server:
        everything labelled with the job except this Guardian's own pod,
        read from the owner index rather than a label scan."""
        pods = []
        for owner in self._workload_owners():
            pods += self.k8s.list("Pod", owner=owner)
        return pods

    def _await_cluster(self, cond, watched, resync):
        """Wait (bounded) until ``cond()`` holds, waking on the
        API-server events of ``watched``, ``(kind, owner)`` pairs as
        :meth:`ApiServer.watch` scopes them; ``resync`` is the
        level-triggered fallback. Returns ``cond()`` at exit.

        ``cond`` must read only what those watches report: a pod leaves
        its owner's index only by an API delete, which its owner's
        watch sees, so no other event can make ``cond`` true."""
        watches = [self.k8s.watch(kind, owner=owner) for kind, owner in watched]
        deadline = self.kernel.now + CLUSTER_WAIT_TIMEOUT
        try:
            while not cond() and self.kernel.now < deadline:
                gets = [watch.get() for watch in watches]
                timer = self.kernel.sleep(min(resync, deadline - self.kernel.now))
                yield self.kernel.any_of(gets + [timer])
                timer.cancel()
                for watch, get in zip(watches, gets):
                    if not get.triggered:
                        # Abandoned getters would swallow the next event.
                        watch.cancel_get(get)
        finally:
            for watch in watches:
                watch.cancel()
        return cond()

    def _deploy(self):
        """The multi-step deployment, write-ahead logged to ETCD.

        Each step records its intent *before* creating the resource, so
        a crash at any point leaves enough information to roll back.
        """
        steps = {
            "pvc": self._deploy_pvc,
            "networkpolicy": self._deploy_network_policy,
            "helper": self._deploy_helper,
            "learners": self._deploy_learners,
        }
        for step, _kind, _name in DEPLOY_STEPS:
            yield from self.etcd.put(
                layout.guardian_deployed_key(self.job_id, step), "pending"
            )
            steps[step]()
            yield self.kernel.sleep(GUARDIAN_STEP_TIME)

    def _deploy_pvc(self):
        self.k8s.create(PersistentVolumeClaim(layout.pvc_name(self.job_id)))

    def _deploy_network_policy(self):
        # Learners may talk to each other and to their helper pod; all
        # other traffic (other tenants, platform services) is blocked.
        self.k8s.create(NetworkPolicy(
            layout.network_policy_name(self.job_id),
            pod_selector={"dlaas-job": self.job_id, "role": "learner"},
            allow_from_selectors=[
                {"dlaas-job": self.job_id, "role": "learner"},
                {"dlaas-job": self.job_id, "role": "helper"},
            ],
        ))

    def _deploy_helper(self):
        platform, job_id, manifest = self.platform, self.job_id, self.manifest

        def spec_factory():
            return PodSpec(
                containers=[
                    ContainerSpec("load-data", "dlaas/helper",
                                  workload=make_load_data_workload(platform, job_id, manifest)),
                    ContainerSpec("controller", "dlaas/helper",
                                  workload=make_controller_workload(platform, job_id, manifest)),
                    ContainerSpec("log-collector", "dlaas/helper",
                                  workload=make_log_collector_workload(platform, job_id, manifest)),
                    ContainerSpec("store-results", "dlaas/helper",
                                  workload=make_store_results_workload(platform, job_id, manifest)),
                ],
                restart_policy=RESTART_ALWAYS,
                volumes={"job": layout.pvc_name(job_id)},
            )

        self.k8s.create(Deployment(
            layout.helper_deployment_name(job_id),
            PodTemplate(spec_factory, labels={"dlaas-job": job_id, "role": "helper"}),
            replicas=1,
        ))

    def _deploy_learners(self):
        platform, job_id, manifest = self.platform, self.job_id, self.manifest
        framework_image = platform.framework_image(manifest.framework)

        gang_scheduled = manifest.learners > 1

        def spec_factory():
            return PodSpec(
                containers=[ContainerSpec(
                    "learner", framework_image,
                    workload=make_learner_workload(platform, job_id, manifest),
                    gpus=manifest.gpus_per_learner,
                    cpu_millicores=manifest.cpu_millicores,
                    memory_mb=manifest.memory_mb,
                )],
                restart_policy=RESTART_ALWAYS,
                volumes={"job": layout.pvc_name(job_id)},
                gpu_type=manifest.gpu_type,
                # Synchronous distributed training blocks at MPI wire-up
                # until every learner exists: place all or none.
                gang=job_id if gang_scheduled else None,
                gang_size=manifest.learners if gang_scheduled else 0,
            )

        self.k8s.create(StatefulSet(
            layout.learner_set_name(job_id),
            PodTemplate(spec_factory, labels={"dlaas-job": job_id, "role": "learner"}),
            replicas=manifest.learners,
        ))

    # ------------------------------------------------------------------
    # Monitoring (§III.f)
    # ------------------------------------------------------------------

    def _monitor(self):
        """Watch-driven monitoring: the etcd watch on the job's prefix
        feeds a single-key reconciler that re-aggregates the *full*
        current status state on every wake. ``MONITOR_INTERVAL``
        survives only as the periodic resync — the level-triggering
        safety net behind the watch. It stays at 1 Hz because the watch
        is served by the first *live* etcd node, which may be a
        partitioned follower that hears of nothing; the resync's leased
        range read goes to the leader and sees through that. Stalls are
        not found here: the controller detects them at its own deadline
        and ``STALLED`` arrives as a transition event."""
        done = self.kernel.event(name=f"job-terminal:{self.job_id}")
        prefix = layout.job_prefix(self.job_id)

        def keys_of(event):
            if _is_transition_event(event):
                return ["status"]
            # Progress-only updates coalesce: a burst of step reports
            # costs one aggregation (one range read, and no Mongo call
            # while the aggregate stands) per coalescing window.
            return [("status", GUARDIAN_EVENT_COALESCE)]

        reconciler = Reconciler(
            self.kernel, f"guardian:{self.job_id}",
            lambda _key: self._reconcile_status(done),
            resync_interval=MONITOR_INTERVAL,
            tracer=self.platform.tracer,
            metrics=self.platform.metrics, kind="guardian",
        )
        reconciler.add_static_key("status")
        # The watch closes if its serving etcd node crashes; the
        # reconciler re-registers on a surviving node and re-enqueues
        # the static key there and then, so a transition written in the
        # gap is read at rewatch.
        reconciler.watch_channel("etcd",
                                 subscribe=lambda: self.etcd.watch(prefix),
                                 keys_of=keys_of)
        reconciler.start()
        try:
            yield self.kernel.any_of([done, self.ctx.stop_event])
        finally:
            reconciler.stop()
        if not done.triggered:
            return 143
        yield from self._finish(done.value)
        return 0

    def _reconcile_status(self, done):
        """One level-triggered pass: one snapshot of the job's etcd
        prefix, aggregated; Mongo hears of it only if it moved."""
        if done.triggered:
            return
        job_id = self.job_id
        halt = layout.halt_key(job_id)
        store = layout.helper_status_key(job_id, "store-results")
        snapshot = yield from self.etcd.get_range(
            layout.job_prefix(job_id), also=(halt, store))
        state = dict(snapshot)
        learners = layout.learner_status_prefix(job_id)
        statuses = [kv for kv in snapshot if kv[0].startswith(learners)]
        halted = state.get(halt)
        store_done = state.get(store) == HELPER_DONE

        reports = [value for _key, value in statuses]
        if reports:
            self._last_reports = reports
        self._restart_stalled_learners(statuses)
        job_status = aggregate_job_status(reports, store_done)
        if halted:
            job_status = HALTED

        yield from self._set_status(job_status)
        if is_terminal(job_status) and not done.triggered:
            done.succeed(job_status)

    def _restart_stalled_learners(self, statuses):
        """Hang detection (extension): restart learners the controller
        reports STALLED. The pod deletion is exactly the Fig. 4 learner
        recovery path — StatefulSet recreation + checkpoint resume —
        so a hang costs one learner-restart, not a lost job."""
        for key, report in statuses:
            if not isinstance(report, dict) or report.get("status") != "STALLED":
                continue
            ordinal = int(key.rsplit("/", 2)[-2].rsplit("-", 1)[1])
            last = self._stall_restarts.get(ordinal)
            if last is not None and self.kernel.now - last < STALL_RESTART_COOLDOWN:
                continue
            pod_name = layout.learner_pod_name(self.job_id, ordinal)
            if not self.k8s.exists("Pod", pod_name):
                continue
            self._stall_restarts[ordinal] = self.kernel.now
            self.platform.k8s.kubectl.delete_pod(pod_name, force=True)
            self.platform.tracer.emit("guardian", "stall-restart",
                                      job=self.job_id, learner=ordinal,
                                      stalled_for=report.get("stalled_for"))
            self.platform.events.emit_event(
                "Warning", "LearnerStalled", "Pod", pod_name,
                message=f"no progress for {report.get('stalled_for')}s; restarting",
                job=self.job_id)

    def _finish(self, final_status):
        teardown_span = self.platform.tracer.start_span(
            "guardian.teardown", component="guardian", parent=self.span,
            job=self.job_id, final_status=final_status)
        yield from self._teardown()
        yield from self._await_pods_gone()
        yield from self._cleanup_etcd()
        yield from self.mongo.update_one(
            "jobs", {"job_id": self.job_id},
            {"$set": {"completed_at": self.kernel.now}},
        )
        yield from self._record_gpu_seconds()
        teardown_span.end("ok")
        self.platform.tracer.emit("guardian", "job-finished", job=self.job_id,
                                  status=final_status)
        event_type, reason = TERMINAL_EVENT_FOR[final_status]
        self.platform.events.emit_event(
            event_type, reason, "Job", self.job_id,
            message=f"job reached {final_status}", job=self.job_id)

    def _record_gpu_seconds(self):
        """Meter GPU occupancy and record job-level training metrics."""
        doc = yield from self.mongo.find_one(
            "jobs", {"job_id": self.job_id},
            projection=["status_history", "created_at", "tenant"])
        if doc is None:
            return
        history = {h["status"]: h["time"] for h in doc["status_history"]}
        deploy_time = history.get(DEPLOYING, doc["created_at"])
        gpu_seconds = self.manifest.total_gpus * max(0.0, self.kernel.now - deploy_time)
        yield from self.mongo.update_one(
            "metering", {"tenant": doc["tenant"]},
            {"$inc": {"gpu_seconds": gpu_seconds}}, upsert=True,
        )
        # Metrics collection (helpers' fourth duty in Fig. 1): training
        # throughput over the PROCESSING window, recorded on the job.
        if PROCESSING in history and STORING in history:
            processing_seconds = history[STORING] - history[PROCESSING]
            batch = self.manifest.batch_per_gpu or \
                self.platform.model_default_batch(self.manifest)
            images = (self.manifest.target_steps * batch
                      * self.manifest.gpus_per_learner * self.manifest.learners)
            metrics = {
                "processing_seconds": processing_seconds,
                "images_per_sec": images / max(processing_seconds, 1e-9),
                "gpu_seconds": gpu_seconds,
            }
            losses = [r["loss"] for r in self._last_reports
                      if isinstance(r, dict) and "loss" in r]
            if losses:
                metrics["final_loss"] = sum(losses) / len(losses)
            yield from self.mongo.update_one(
                "jobs", {"job_id": self.job_id}, {"$set": {"metrics": metrics}}
            )

    # ------------------------------------------------------------------
    # Teardown / rollback
    # ------------------------------------------------------------------

    def _teardown(self):
        for _step, kind, name_of in reversed(DEPLOY_STEPS):
            resource = self.k8s.get_or_none(kind, name_of(self.job_id))
            if resource is None:
                continue
            if kind in ("StatefulSet", "Deployment"):
                resource.deletion_requested = True
                self.k8s.update(resource)
            else:
                self.k8s.delete(kind, resource.metadata.name)
        yield from self.etcd.delete_prefix(
            layout.guardian_deployed_prefix(self.job_id))

    def _cleanup_etcd(self):
        yield from self.etcd.delete_prefix(layout.job_prefix(self.job_id))
        yield from self.etcd.delete_prefix(layout.guardian_prefix(self.job_id))

    # ------------------------------------------------------------------
    # Status recording in MongoDB
    # ------------------------------------------------------------------

    def _set_status(self, status, reason=None):
        """Advance the job's status in MongoDB, validated and monotone.
        A status Mongo confirmed to this incarnation (read equal, or
        written with the CAS matched) is not asked for again."""
        if status == self._confirmed:
            return
        doc = yield from self.mongo.find_one("jobs", {"job_id": self.job_id},
                                             projection=["status"])
        if doc is None:
            return
        if doc["status"] == status:
            self._confirmed = status
            return
        try:
            validate_transition(doc["status"], status)
        except Exception:
            return  # stale observation; never move a job backwards illegally
        update = {
            "$set": {"status": status},
            "$push": {"status_history": {"status": status, "time": self.kernel.now}},
        }
        if reason:
            update["$set"]["reason"] = reason
        matched, _modified = yield from self.mongo.update_one(
            "jobs", {"job_id": self.job_id, "status": doc["status"]}, update
        )
        if not matched:
            return  # an overlapping incarnation moved it first
        self._confirmed = status
        self.platform.tracer.emit("guardian", "status-update", job=self.job_id,
                                  status=status)
