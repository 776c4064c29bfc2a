"""The DLaaS API microservice (paper §III.c).

Exposes the user-facing operations (submit, status, list, halt, logs,
metering) over the RPC fabric — standing in for the REST and GRPC
endpoints of the real system. Instances register into the platform's
service load balancer (the K8S service registry), which provides
fail-over for incoming requests.

Durability rule: "When a job deployment request arrives, the API layer
stores all the metadata in MongoDB before acknowledging the request.
This ensures that submitted jobs are never lost." The LCM notify after
the store is best-effort; the LCM's reconcile loop covers its loss.
"""

from ..cluster import pv_name
from ..grpcnet import Client, Server
from ..grpcnet.errors import RpcError
from ..raftkv import EtcdClient
from ..sim.tracing import extract_context
from . import layout
from .auth import Metering, RateLimiter
from .errors import JobNotFound, RateLimited
from .manifest import TrainingManifest
from .states import QUEUED, is_terminal

API_SERVICE_TIME = 0.002  # handler cost per request
# Per-tenant admission token bucket: refill per second, and capacity.
API_RATE_LIMIT = 50.0
API_RATE_BURST = 200.0


class ApiService:
    """One API instance (runs inside an API pod)."""

    def __init__(self, platform, address):
        self.platform = platform
        self.kernel = platform.kernel
        self.address = address
        self.mongo = platform.mongo_client(address)
        self.etcd = EtcdClient(self.kernel, platform.network, platform.etcd,
                               client_id=address, history=platform.history)
        self.metering = Metering(self.mongo)
        self.ratelimiter = RateLimiter(self.kernel, rate=API_RATE_LIMIT,
                                       burst=API_RATE_BURST)
        # Admission is the per-tenant token bucket: every request is
        # counted, and every throttle counted and reported as an event.
        metrics = platform.metrics
        self._m_requests = metrics.counter(
            "api_requests_total", ("tenant", "method"),
            help="API requests received, by tenant and method")
        self._m_rejected = metrics.counter(
            "admission_rejected_total", ("tenant", "reason"),
            help="submissions rejected at admission (reason: rate)")
        self.lcm = Client(self.kernel, platform.network, platform.lcm_balancer,
                          caller=address, retries=1, retry_backoff=0.2)
        self.server = Server(self.kernel, platform.network, address,
                             service_time=API_SERVICE_TIME)
        for method in ("submit", "status", "list_jobs", "halt", "logs", "usage"):
            self.server.add_method(method, getattr(self, f"_on_{method}"))
        # The RESTful surface shares the same handlers (§III.c: "both a
        # RESTful API as well as a GRPC API endpoint").
        from .rest import RestGateway

        self.server.add_method("http", RestGateway(self).handle)

    def _authenticate(self, request, method):
        tenant = self.platform.tokens.authenticate(request.get("token"))
        self._m_requests.labels(tenant=tenant, method=method).inc()
        try:
            self.ratelimiter.check(tenant)
        except RateLimited:
            self._m_rejected.labels(tenant=tenant, reason="rate").inc()
            self.platform.events.emit_event(
                "Warning", "TenantThrottled", "Tenant", tenant,
                message=f"tenant {tenant} over its request rate limit")
            raise
        yield from self.metering.record_api_call(tenant, method)
        return tenant

    # ------------------------------------------------------------------
    # submit
    # ------------------------------------------------------------------

    def _on_submit(self, request):
        # The root of the job's causal trace: everything downstream
        # (LCM, Guardian, helpers, learners) parents back to this span,
        # via RPC metadata or the ("job", job_id) binding.
        span = self.platform.tracer.start_span(
            "api.submit", component="api", parent=extract_context(request))
        try:
            tenant = yield from self._authenticate(request, "submit")
            manifest = TrainingManifest.from_dict(request.get("manifest"))

            seq = yield from self._next_sequence()
            job_id = f"job-{seq:05d}"
            span.set_attribute("job", job_id)
            self.platform.tracer.bind(("job", job_id), span.context)
            document = {
                "job_id": job_id,
                "tenant": tenant,
                "name": manifest.name,
                "manifest": manifest.to_dict(),
                "status": QUEUED,
                "status_history": [{"status": QUEUED,
                                    "time": self.kernel.now}],
                "created_at": self.kernel.now,
                "completed_at": None,
            }
            # Metadata is durable in MongoDB BEFORE the request is
            # acknowledged — submitted jobs are never lost.
            yield from self.mongo.insert_one("jobs", document,
                                             ctx=span.context)
            yield from self.metering.record_submission(
                tenant, manifest.total_gpus)

            # Best-effort LCM notify; the reconcile loop is the safety net.
            try:
                yield from self.lcm.call("deploy_job", {"job_id": job_id},
                                         deadline=1.0, ctx=span.context)
            except RpcError:
                pass
        except BaseException:
            span.end("error")
            raise
        span.end("ok")
        return {"job_id": job_id, "status": QUEUED}

    def _next_sequence(self):
        counter = {"_id_name": "job-seq"}
        doc = yield from self.mongo.find_one_and_update(
            "counters", counter, {"$inc": {"seq": 1}}, return_new=True
        )
        if doc is None:
            try:
                yield from self.mongo.insert_one(
                    "counters", {**counter, "seq": 0}
                )
            except Exception:
                pass  # another API instance won the race
            doc = yield from self.mongo.find_one_and_update(
                "counters", counter, {"$inc": {"seq": 1}}, return_new=True,
            )
        return doc["seq"]

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def _load_job(self, tenant, job_id, projection=None):
        doc = yield from self.mongo.find_one("jobs", {"job_id": job_id,
                                                      "tenant": tenant},
                                             projection=projection)
        if doc is None:
            raise JobNotFound(f"{job_id} (tenant {tenant})")
        return doc

    def _on_status(self, request):
        tenant = yield from self._authenticate(request, "status")
        # Everything the response needs except the (large) manifest.
        doc = yield from self._load_job(
            tenant, request["job_id"],
            projection=["job_id", "name", "status", "status_history",
                        "created_at", "completed_at", "metrics"])
        learners = yield from self.etcd.get_range(
            layout.learner_status_prefix(request["job_id"])
        )
        return {
            "job_id": doc["job_id"],
            "name": doc["name"],
            "status": doc["status"],
            "status_history": doc["status_history"],
            "learners": {key.rsplit("/", 2)[-2]: value for key, value in learners},
            "created_at": doc["created_at"],
            "completed_at": doc["completed_at"],
            "metrics": doc.get("metrics"),
        }

    def _on_list_jobs(self, request):
        tenant = yield from self._authenticate(request, "list_jobs")
        docs = yield from self.mongo.find(
            "jobs", {"tenant": tenant}, sort=[("created_at", 1)],
            projection=["job_id", "name", "status", "created_at"])
        return [{"job_id": d["job_id"], "name": d["name"], "status": d["status"]}
                for d in docs]

    def _on_logs(self, request):
        """Reliable log access regardless of job stage (paper §II).

        While the job's NFS volume exists, tail the combined log from
        there; after teardown, fall back to the archived copy in the
        object store.
        """
        tenant = yield from self._authenticate(request, "logs")
        doc = yield from self._load_job(tenant, request["job_id"],
                                        projection=["job_id", "manifest"])
        job_id = doc["job_id"]
        tail = request.get("tail")
        text = None
        try:
            volume = self.platform.nfs.volume(pv_name(layout.pvc_name(job_id)))
            if volume.exists(layout.COMBINED_LOG):
                text = volume.read_file(layout.COMBINED_LOG)
        except Exception:
            text = None
        if text is None:
            manifest = doc["manifest"]
            try:
                obj = self.platform.object_store.head_object(
                    manifest["results"]["bucket"], f"{job_id}/logs",
                    manifest["results"]["credentials"],
                )
                text = (obj.payload or {}).get("text", "")
            except Exception:
                text = ""
        lines = text.splitlines()
        if tail is not None:
            lines = lines[-int(tail):]
        return {"lines": lines}

    def _on_usage(self, request):
        tenant = yield from self._authenticate(request, "usage")
        report = yield from self.metering.report(tenant)
        report.pop("_id", None)
        return report

    # ------------------------------------------------------------------
    # halt
    # ------------------------------------------------------------------

    def _on_halt(self, request):
        tenant = yield from self._authenticate(request, "halt")
        doc = yield from self._load_job(tenant, request["job_id"],
                                        projection=["job_id", "status"])
        if is_terminal(doc["status"]):
            return {"job_id": doc["job_id"], "status": doc["status"]}
        response = yield from self.lcm.call("kill_job", {"job_id": doc["job_id"]},
                                            deadline=2.0)
        return {"job_id": doc["job_id"], "halt": response["halted"]}
