"""The ServingManager: the LCM of the serving workload class.

Reconciles the durable model registry (the ``models`` MongoDB
collection, written by the API before any acknowledgement) against
Kubernetes state: an ACTIVE model gets a Deployment named
``serving-<model_id>`` with the desired replica count; a DELETING
model has its Deployment torn down and is then marked DELETED.

Like the LCM it keeps no in-memory state it cannot rebuild: desired
replica counts live in MongoDB (the autoscaler writes them there
*before* actuating), and the reconciler relists on every resync, so a
manager crash/restart — or a notify RPC lost to a network fault —
delays convergence by at most one resync interval.
"""

from ..cluster import ContainerSpec, Deployment, PodSpec, PodTemplate, RESTART_ALWAYS
from ..frameworks import get_framework
from ..grpcnet import Server
from ..sim import Reconciler, WatchSource
from .autoscaler import ServingAutoscaler
from .manifest import ServingManifest
from .replica import make_replica_workload

MODEL_ACTIVE = "ACTIVE"
MODEL_DELETING = "DELETING"
MODEL_DELETED = "DELETED"

SERVING_REPLICAS = 1  # manager (dlaas-serving) replicas
RECONCILE_INTERVAL = 1.0  # model-registry resync


def deployment_name(model_id):
    return f"serving-{model_id}"


class ServingManager:
    """One manager instance (runs inside a dlaas-serving pod)."""

    def __init__(self, platform, address):
        self.platform = platform
        self.kernel = platform.kernel
        self.address = address
        self.mongo = platform.mongo_client(address, tracer=platform.tracer)
        self.server = Server(self.kernel, platform.network, address)
        self.server.add_method("reconcile_model", self._on_reconcile_model)

    # ------------------------------------------------------------------
    # RPC handlers (the API's best-effort notify path)
    # ------------------------------------------------------------------

    def _on_reconcile_model(self, request):
        yield from self.reconcile_model(request["model_id"])
        return {"ok": True}

    # ------------------------------------------------------------------
    # Reconciliation
    # ------------------------------------------------------------------

    def reconcile_model(self, model_id):
        doc = yield from self.mongo.find_one("models", {"model_id": model_id})
        if doc is None:
            return
        api = self.platform.k8s.api
        name = deployment_name(model_id)
        deployment = api.get_or_none("Deployment", name)

        if doc["status"] == MODEL_DELETING:
            if deployment is not None:
                if not deployment.deletion_requested:
                    deployment.deletion_requested = True
                    api.update(deployment)
                return  # pods still draining; the resync re-checks
            self.platform.serving.remove_model(model_id)
            yield from self.mongo.update_one(
                "models", {"model_id": model_id, "status": MODEL_DELETING},
                {"$set": {"status": MODEL_DELETED,
                          "deleted_at": self.kernel.now}})
            self.platform.events.emit_event(
                "Normal", "ServingModelDeleted", "Model", model_id,
                message=f"deployment {name} torn down")
            return

        if doc["status"] != MODEL_ACTIVE:
            return
        manifest = ServingManifest.from_dict(doc["manifest"])
        self.platform.serving.ensure_model(model_id, manifest)
        desired = doc.get("replicas", manifest.min_replicas)
        if deployment is None:
            deployment = Deployment(
                name,
                PodTemplate(self._spec_factory(model_id, manifest),
                            labels={"dlaas-serving": model_id,
                                    "role": "serving-replica"}),
                replicas=desired,
                labels={"dlaas-serving": model_id},
            )
            api.create(deployment)
            self.platform.tracer.emit("serving", "model-deployed",
                                      model=model_id)
            self.platform.events.emit_event(
                "Normal", "ServingModelCreated", "Model", model_id,
                message=f"deployment {name} created with {desired} replicas")
        elif deployment.replicas != desired:
            deployment.replicas = desired
            api.update(deployment)

    def _spec_factory(self, model_id, manifest):
        platform = self.platform

        def spec_factory():
            return PodSpec(
                containers=[ContainerSpec(
                    "replica", get_framework(manifest.framework).image,
                    workload=make_replica_workload(platform, model_id,
                                                   manifest),
                    gpus=manifest.gpus_per_replica,
                    cpu_millicores=manifest.cpu_millicores,
                    memory_mb=manifest.memory_mb,
                )],
                restart_policy=RESTART_ALWAYS,
                node_selector={"pool": "gpu"},
                gpu_type=manifest.gpu_type,
                priority=manifest.priority,
            )

        return spec_factory

    # ------------------------------------------------------------------
    # Reconciler + autoscaler (started/stopped by the pod workload)
    # ------------------------------------------------------------------

    def make_reconciler(self):
        """Level-triggered resync over the durable model registry.

        MongoDB has no change stream in the simulation, so (exactly
        like the LCM's deploy reconciler) the API's notify RPC is the
        event path and the resync relist is the safety net that covers
        lost notifies and manager restarts.
        """

        def list_models():
            docs = yield from self.mongo.find(
                "models", {}, projection=["model_id", "status"])
            return [d["model_id"] for d in docs
                    if d["status"] != MODEL_DELETED]

        reconciler = Reconciler(
            self.kernel, f"serving:{self.address}",
            self.reconcile_model,
            resync_interval=RECONCILE_INTERVAL,
            tracer=self.platform.tracer,
            metrics=self.platform.metrics,
        )
        reconciler.add_source(WatchSource("mongo-models",
                                          list_keys=list_models))
        return reconciler

    def make_autoscaler(self):
        return ServingAutoscaler(self)
