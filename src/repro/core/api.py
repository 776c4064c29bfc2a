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

from ..grpcnet import Client, Server
from ..grpcnet.errors import RpcError
from ..raftkv import EtcdClient
from ..sim.tracing import extract_context
from . import layout
from .admission import AdmissionController
from .auth import Metering, RateLimiter
from .errors import JobNotFound, ModelNotFound, ServingDisabled
from .manifest import TrainingManifest
from .states import QUEUED, is_terminal

API_SERVICE_TIME = 0.002  # handler cost per request


class ApiService:
    """One API instance (runs inside an API pod)."""

    def __init__(self, platform, address):
        self.platform = platform
        self.kernel = platform.kernel
        self.address = address
        self.mongo = platform.mongo_client(address, tracer=platform.tracer)
        self.etcd = EtcdClient(self.kernel, platform.network, platform.etcd,
                               client_id=address, history=platform.history)
        self.metering = Metering(self.mongo)
        self.ratelimiter = RateLimiter(self.kernel,
                                       rate=platform.config.api_rate_limit,
                                       burst=platform.config.api_rate_burst)
        self.admission = AdmissionController(self)
        self.lcm = Client(self.kernel, platform.network, platform.lcm_balancer,
                          caller=address, retries=1, retry_backoff=0.2)
        if platform.serving_balancer is not None:
            self.serving_manager = Client(self.kernel, platform.network,
                                          platform.serving_balancer,
                                          caller=address, retries=1,
                                          retry_backoff=0.2)
        else:
            self.serving_manager = None
        self.server = Server(self.kernel, platform.network, address,
                             service_time=API_SERVICE_TIME)
        for method in ("submit", "status", "list_jobs", "halt", "logs", "usage",
                       "events", "job_events",
                       "create_model", "get_model", "list_models",
                       "delete_model"):
            self.server.add_method(method, getattr(self, f"_on_{method}"))
        # The RESTful surface shares the same handlers (§III.c: "both a
        # RESTful API as well as a GRPC API endpoint").
        from .rest import RestGateway

        self.server.add_method("http", RestGateway(self).handle)

    def _authenticate(self, request, method):
        tenant = self.platform.tokens.authenticate(request.get("token"))
        self.admission.check_call(tenant, method)
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

            # Quota/fair-queue gate: raises QuotaExceeded, or returns
            # holding one reservation that the finally below settles
            # once the job document is durable (or the insert failed).
            yield from self.admission.admit_submission(tenant)
            try:
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
            finally:
                self.admission.settle(tenant)

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

    def _next_sequence(self, counter="job-seq"):
        doc = yield from self.mongo.find_one_and_update(
            "counters", {"_id_name": counter}, {"$inc": {"seq": 1}}, return_new=True
        )
        if doc is None:
            try:
                yield from self.mongo.insert_one(
                    "counters", {"_id_name": counter, "seq": 0}
                )
            except Exception:
                pass  # another API instance won the race
            doc = yield from self.mongo.find_one_and_update(
                "counters", {"_id_name": counter}, {"$inc": {"seq": 1}},
                return_new=True,
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
        volume_name = f"pv-default-{layout.pvc_name(job_id)}"
        text = None
        try:
            volume = self.platform.nfs.volume(volume_name)
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

    @staticmethod
    def _event_body(doc):
        return {k: v for k, v in doc.items() if k not in ("_id", "event_key")}

    def _on_events(self, request):
        """Platform-wide event log (operator view), read from MongoDB
        where the monitoring stack's flusher persists it."""
        yield from self._authenticate(request, "events")
        query = {}
        for field in ("reason", "type", "kind"):
            if request.get(field) is not None:
                query[field] = request[field]
        docs = yield from self.mongo.find("events", query,
                                          sort=[("first_time", 1)])
        return [self._event_body(d) for d in docs]

    def _on_job_events(self, request):
        """Events involving one job, tenancy-checked like status."""
        tenant = yield from self._authenticate(request, "job_events")
        doc = yield from self._load_job(tenant, request["job_id"],
                                        projection=["job_id"])
        docs = yield from self.mongo.find("events", {"job": doc["job_id"]},
                                          sort=[("first_time", 1)])
        return [self._event_body(d) for d in docs]

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

    # ------------------------------------------------------------------
    # Serving models (the second workload class, repro.serving)
    # ------------------------------------------------------------------

    def _require_serving(self):
        if self.serving_manager is None:
            raise ServingDisabled(
                "serving endpoints need PlatformConfig(serving=True)")

    def _notify_serving(self, model_id):
        # Best-effort like the LCM notify; the ServingManager's resync
        # relist is the safety net for a lost RPC.
        try:
            yield from self.serving_manager.call(
                "reconcile_model", {"model_id": model_id}, deadline=1.0)
        except RpcError:
            pass

    def _load_model(self, tenant, model_id, projection=None):
        doc = yield from self.mongo.find_one(
            "models", {"model_id": model_id, "tenant": tenant},
            projection=projection)
        if doc is None:
            raise ModelNotFound(f"{model_id} (tenant {tenant})")
        return doc

    def _on_create_model(self, request):
        self._require_serving()
        tenant = yield from self._authenticate(request, "create_model")
        from ..serving import MODEL_ACTIVE, ServingManifest

        manifest = ServingManifest.from_dict(request.get("manifest"))
        seq = yield from self._next_sequence("model-seq")
        model_id = f"model-{seq:04d}"
        document = {
            "model_id": model_id,
            "tenant": tenant,
            "name": manifest.name,
            "manifest": manifest.to_dict(),
            "replicas": manifest.min_replicas,
            "status": MODEL_ACTIVE,
            "created_at": self.kernel.now,
            "deleted_at": None,
        }
        # Same durability rule as jobs: the registry entry is in
        # MongoDB before the request is acknowledged.
        yield from self.mongo.insert_one("models", document)
        yield from self._notify_serving(model_id)
        return {"model_id": model_id, "status": MODEL_ACTIVE}

    def _on_get_model(self, request):
        self._require_serving()
        tenant = yield from self._authenticate(request, "get_model")
        doc = yield from self._load_model(
            tenant, request["model_id"],
            projection=["model_id", "name", "status", "replicas",
                        "created_at", "deleted_at"])
        response = {
            "model_id": doc["model_id"],
            "name": doc["name"],
            "status": doc["status"],
            "replicas": doc.get("replicas"),
            "created_at": doc["created_at"],
            "deleted_at": doc.get("deleted_at"),
        }
        runtime = self.platform.serving
        if runtime is not None and doc["model_id"] in runtime.model_ids():
            stats = runtime.stats(doc["model_id"])
            response["ready_replicas"] = stats["replicas"]
            response["queue_depth"] = stats["queue_depth"]
            response["window_p99"] = stats["window_p99"]
        return response

    def _on_list_models(self, request):
        self._require_serving()
        tenant = yield from self._authenticate(request, "list_models")
        docs = yield from self.mongo.find(
            "models", {"tenant": tenant}, sort=[("created_at", 1)],
            projection=["model_id", "name", "status", "replicas"])
        return [{"model_id": d["model_id"], "name": d["name"],
                 "status": d["status"], "replicas": d.get("replicas")}
                for d in docs]

    def _on_delete_model(self, request):
        self._require_serving()
        tenant = yield from self._authenticate(request, "delete_model")
        from ..serving import MODEL_ACTIVE, MODEL_DELETING

        doc = yield from self.mongo.find_one_and_update(
            "models",
            {"model_id": request["model_id"], "tenant": tenant,
             "status": MODEL_ACTIVE},
            {"$set": {"status": MODEL_DELETING}}, return_new=True)
        if doc is None:
            # Not ACTIVE: distinguish "never existed / wrong tenant"
            # from "already deleting/deleted" (idempotent delete).
            doc = yield from self._load_model(
                tenant, request["model_id"], projection=["model_id", "status"])
            return {"model_id": doc["model_id"], "status": doc["status"]}
        yield from self._notify_serving(doc["model_id"])
        return {"model_id": doc["model_id"], "status": doc["status"]}
