"""The Lifecycle Manager (paper §III.c–d).

"The LCM is responsible for the job from submission to
completion/failure, i.e., the deployment, monitoring, garbage
collection, and user-initiated termination of the job."

Deployment is delegated: the LCM's only deployment action is the quick,
single-step creation of a Guardian K8S Job. A reconcile loop also scans
MongoDB for QUEUED jobs, so submissions that arrived while the LCM was
down (or whose notify RPC was lost) are still deployed — the LCM keeps
no in-memory state it cannot rebuild.
"""

from ..cluster import ContainerSpec, Job, PodSpec, PodTemplate, RESTART_NEVER
from ..grpcnet import Client, Server
from ..grpcnet.errors import RpcError
from ..raftkv import EtcdClient
from ..sim import Reconciler, WatchSource
from . import layout
from .guardian import make_guardian_workload
from .states import HALTED, QUEUED, is_terminal

LCM_RECONCILE_INTERVAL = 1.0  # deploy-queue resync (Mongo relist)
LCM_GC_INTERVAL = 5.0  # GC resync (API-server relist)
GUARDIAN_BACKOFF_LIMIT = 8  # K8S Job retries of a crashing Guardian pod


class LcmService:
    """One LCM instance (runs inside an LCM pod)."""

    def __init__(self, platform, address):
        self.platform = platform
        self.kernel = platform.kernel
        self.address = address
        self.mongo = platform.mongo_client(address)
        self.etcd = EtcdClient(self.kernel, platform.network, platform.etcd,
                               client_id=address, history=platform.history)
        self.server = Server(self.kernel, platform.network, address)
        self.server.add_method("deploy_job", self._on_deploy_job)
        self.server.add_method("kill_job", self._on_kill_job)
        # Partitioned pool (lcm_slices > 0): this instance deploys/GCs
        # only the job-id slices it holds raftkv leases on.
        if platform.config.lcm_slices > 0:
            from .partitions import SliceManager

            self.slices = SliceManager(platform, address, self.etcd)
        else:
            self.slices = None

    # ------------------------------------------------------------------
    # RPC handlers
    # ------------------------------------------------------------------

    def _on_deploy_job(self, request):
        job_id = request["job_id"]
        # Partitioned pool: a notify that lands on the wrong partition
        # (round-robin balancer, stale ring) is forwarded to the slice
        # owner once. If the owner is unknown or unreachable we deploy
        # locally anyway — the Mongo QUEUED->DEPLOYING claim keeps
        # concurrent deploys exactly-once, so misrouting costs at most
        # a wasted claim attempt, never a duplicate Guardian.
        if (self.slices is not None and not request.get("forwarded")
                and not self.slices.owns(job_id)):
            owner = self.slices.owner_of(job_id)
            if owner is not None and owner != self.address:
                forward = Client(self.kernel, self.platform.network, owner,
                                 caller=self.address, retries=0)
                try:
                    response = yield from forward.call(
                        "deploy_job", {"job_id": job_id, "forwarded": True},
                        deadline=1.0)
                    return response
                except RpcError:
                    pass  # owner down; fall through to the local path
        deployed = yield from self.deploy_job(job_id)
        return {"deployed": deployed}

    def _on_kill_job(self, request):
        job_id = request["job_id"]
        # Fast path: a QUEUED job has no Guardian yet; halt it directly
        # (guarded by status so we never race a concurrent deploy).
        doc = yield from self.mongo.find_one_and_update(
            "jobs", {"job_id": job_id, "status": QUEUED},
            {"$set": {"status": HALTED},
             "$push": {"status_history": {"status": HALTED, "time": self.kernel.now}}},
        )
        if doc is not None:
            return {"halted": "immediately"}
        # Otherwise signal the Guardian through ETCD.
        yield from self.etcd.put(layout.halt_key(job_id), True)
        return {"halted": "signalled"}

    # ------------------------------------------------------------------
    # Deployment: create the Guardian (quick single step, §III.d)
    # ------------------------------------------------------------------

    def deploy_job(self, job_id):
        name = layout.guardian_job_name(job_id)
        if self.platform.k8s.api.exists("Job", name):
            return False

        tracer = self.platform.tracer
        span = tracer.start_span("lcm.deploy_job", component="lcm",
                                 parent=tracer.context_of(("job", job_id)),
                                 job=job_id)

        # Claim the job: QUEUED -> DEPLOYING exactly once, even with
        # concurrent LCM instances or notify+reconcile races.
        doc = yield from self.mongo.find_one_and_update(
            "jobs", {"job_id": job_id, "status": QUEUED},
            {"$set": {"status": "DEPLOYING"},
             "$push": {"status_history": {"status": "DEPLOYING",
                                          "time": self.kernel.now}}},
            ctx=span.context,
        )
        if doc is None:
            span.end("noop")
            return False

        # The Guardian (and everything it creates) parents on this span.
        tracer.bind(("job-deploy", job_id), span.context)
        platform = self.platform

        def spec_factory():
            return PodSpec(
                containers=[ContainerSpec(
                    "guardian", "dlaas/guardian",
                    workload=make_guardian_workload(platform, job_id),
                )],
                restart_policy=RESTART_NEVER,  # the K8S Job does the retrying
            )

        start = self.kernel.now
        self.platform.k8s.api.create(Job(
            name,
            PodTemplate(spec_factory, labels={"dlaas-job": job_id, "role": "guardian"}),
            backoff_limit=GUARDIAN_BACKOFF_LIMIT,
            labels={"dlaas-job": job_id},
        ))
        self.platform.metrics.histogram("lcm.guardian_creation_seconds").observe(
            self.kernel.now - start
        )
        self.platform.tracer.emit("lcm", "guardian-created", job=job_id)
        self.platform.events.emit_event(
            "Normal", "GuardianCreated", "Job", job_id,
            message=f"guardian K8S job {name} created", job=job_id)
        span.end("ok")
        return True

    # ------------------------------------------------------------------
    # Reconcilers (started/stopped by the LCM pod workload)
    # ------------------------------------------------------------------

    def make_deploy_reconciler(self):
        """Deploy QUEUED jobs; the safety net behind lost notifies.

        MongoDB has no change stream in the simulation, so the API's
        notify RPC is the event path and this reconciler is resync-only:
        each start/resync relists QUEUED job ids from MongoDB and pushes
        them through the coalescing queue (a job id queued by relist and
        notify at once deploys exactly once; ``deploy_job`` is further
        guarded by the QUEUED->DEPLOYING status claim)."""

        def list_queued():
            docs = yield from self.mongo.find("jobs", {"status": QUEUED},
                                              projection=["job_id"])
            ids = [doc["job_id"] for doc in docs]
            if self.slices is not None:
                # Partitioned pool: resync only the owned slices. An
                # orphaned slice is invisible to everyone for at most
                # one lease TTL + tick, then its adopter relists it.
                ids = [job_id for job_id in ids if self.slices.owns(job_id)]
            return ids

        tracer = self.platform.tracer
        reconciler = Reconciler(
            self.kernel, f"deploy:{self.address}",
            self.deploy_job,
            resync_interval=LCM_RECONCILE_INTERVAL,
            tracer=tracer,
            metrics=self.platform.metrics,
            key_context=lambda job_id: tracer.context_of(("job", job_id)),
        )
        reconciler.add_source(WatchSource("mongo-queued", list_keys=list_queued))
        return reconciler

    def make_gc_reconciler(self):
        """Garbage-collect Guardian K8S Jobs of terminal DL jobs.

        Watch-driven: a Guardian K8S Job completing is a MODIFIED event
        on the API server, so collection is immediate instead of up to
        ``LCM_GC_INTERVAL`` late; the interval survives as the relist
        resync covering events lost across an LCM restart."""
        api = self.platform.k8s.api

        def owned(dlaas_job):
            return self.slices is None or self.slices.owns(dlaas_job)

        def job_names():
            return [job.metadata.name for job in api.list("Job")
                    if job.metadata.labels.get("dlaas-job")
                    and owned(job.metadata.labels["dlaas-job"])]

        def keys_of(event):
            _etype, resource = event
            dlaas_job = resource.metadata.labels.get("dlaas-job")
            if dlaas_job is None or not owned(dlaas_job):
                return ()
            return (resource.metadata.name,)

        reconciler = Reconciler(
            self.kernel, f"gc:{self.address}",
            self._gc_job,
            resync_interval=LCM_GC_INTERVAL,
            tracer=self.platform.tracer,
            metrics=self.platform.metrics,
        )
        reconciler.watch_channel("k8s-jobs", subscribe=lambda: api.watch("Job"),
                                 keys_of=keys_of, list_keys=job_names)
        return reconciler

    def _gc_job(self, name):
        api = self.platform.k8s.api
        job = api.get_or_none("Job", name)
        if job is None or not job.complete:
            return  # not collectable (yet); a later event/resync re-checks
        dlaas_job = job.metadata.labels.get("dlaas-job")
        if dlaas_job is None:
            return
        doc = yield from self.mongo.find_one("jobs", {"job_id": dlaas_job},
                                             projection=["status"])
        if doc is None or not is_terminal(doc["status"]):
            return
        if job.active_pod and api.exists("Pod", job.active_pod):
            pod = api.get("Pod", job.active_pod)
            pod.deletion_requested = True
            api.update(pod)
        api.delete("Job", job.metadata.name)
        self.platform.events.emit_event(
            "Normal", "GuardianCollected", "Job", dlaas_job,
            message=f"guardian K8S job {name} garbage-collected", job=dlaas_job)
