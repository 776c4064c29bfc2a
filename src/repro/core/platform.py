"""Assembly of the whole DLaaS platform (Fig. 1 of the paper).

One object builds and wires every layer:

* platform layer — simulated Kubernetes cluster, 3-way-replicated ETCD
  (Raft), MongoDB replica set, shared NFS server, cloud object store,
  and the RPC fabric connecting them;
* core services — API and LCM, deployed as Kubernetes Deployments and
  registered into service load balancers;
* per-job machinery — Guardians (K8S Jobs), helper pods and learner
  StatefulSets are created at job-deployment time by the LCM/Guardian.
"""

from dataclasses import dataclass

from ..cluster import (
    ContainerSpec,
    Deployment,
    KubernetesCluster,
    PodSpec,
    PodTemplate,
    RESTART_ALWAYS,
)
from ..docstore import MongoReplicaSet
from ..frameworks import get_framework, get_model, FRAMEWORKS
from ..grpcnet import LatencyModel, LoadBalancer, Network
from ..monitoring import HealthRegistry, MonitoringStack, register_platform_probes
from ..nfs import NfsServer
from ..objectstore import ObjectStore
from ..raftkv import EtcdCluster
from ..sim import FaultInjector, Kernel, MetricsRegistry, Tracer
from .auth import TokenRegistry
from .client import DlaasClient
from .events import EventRecorder
from .services import make_api_workload, make_lcm_workload

# RPC fabric: per-hop base latency and uniform jitter, seconds.
NETWORK_LATENCY = 0.0008
NETWORK_JITTER = 0.0006

# Platform image sizes, MB.
IMAGE_SIZES = {
    "dlaas/api": 60.0,
    "dlaas/lcm": 55.0,
    "dlaas/guardian": 45.0,
    "dlaas/helper": 120.0,
}


@dataclass
class PlatformConfig:
    """What callers vary about the assembled platform (simulated
    seconds). A field exists only while two callers pass different
    values (or it is a deployment size/credential); one-valued tunables
    are constants beside the code that reads them —
    ``tests/core/test_config_surface.py`` holds the line."""

    # Topology
    gpu_nodes: int = 4
    gpus_per_node: int = 4
    gpu_type: str = "k80"
    management_nodes: int = 3
    extra_gpu_pools: tuple = ()  # extra (count, gpus, gpu_type) pools
    api_replicas: int = 2
    lcm_replicas: int = 1
    etcd_size: int = 3
    mongo_size: int = 3

    # Core-service behaviour
    api_rate_limit: float = 50.0
    api_rate_burst: float = 200.0
    max_deploy_attempts: int = 3
    gang_scheduling: bool = True
    # Hang detection (extension): a PROCESSING learner whose status file
    # has not changed for this long is reported STALLED and restarted by
    # the Guardian. 0 disables.
    stall_timeout: float = 90.0
    stall_restart_cooldown: float = 60.0

    # Observability: causal span collection (flat trace records and
    # metrics stay on — they are load-bearing for tests and benchmarks).
    span_tracing: bool = True

    # Monitoring subsystem (scrape pipeline + health probes + SLO
    # alerting + gray-failure detection), always built. Collection is
    # pure in-memory observation and event persistence bypasses the RPC
    # fabric, so the simulated job timeline is bit-identical with the
    # stack running or stopped.
    scrape_interval: float = 1.0
    alert_eval_interval: float = 1.0
    event_flush_interval: float = 2.0
    # Optional bearer token gating GET /metrics and GET /healthz
    # (None = unauthenticated, the current behaviour).
    metrics_auth: str = None
    # Gray-failure detection (repro.monitoring.differential): the
    # DifferentialDetector scores each endpoint's windowed mean RPC
    # latency, error rate and served-vs-requested flow against the
    # median of its role peers (median + MAD robust z-score) and
    # publishes ``gray_divergence`` recording series that the
    # GrayFailure{Slow,Partition,DiskStall} alert rules threshold.
    gray_window: float = 8.0  # trailing stats window, seconds
    gray_alert_for: float = 1.0  # GrayFailure* hold before firing
    # Consistency audit (repro.audit): record every raftkv client
    # operation in a flight recorder and check the per-key histories
    # for linearizability with a periodic in-sim auditor. Recording is
    # direct appends (no RPCs, no RNG), so the simulated timeline is
    # bit-identical with it on or off (pinned by test_timeline_pin.py).
    history_recording: bool = False
    audit_interval: float = 5.0  # seconds between auditor passes

    # Sharded control plane (ISSUE 10): every knob defaults to the
    # unsharded platform, and with the defaults none of the sharding
    # machinery runs a single extra simulation event — the timeline is
    # bit-identical to the pre-sharding tree (the default row of
    # test_timeline_pin.py; its partitions-2 row pins the knobs on).
    #
    # api_ring_routing: the dlaas-api balancer grows a consistent-hash
    # ring and clients route by tenant, so one tenant's requests (and
    # its rate-limit bucket) land on one replica with stable fail-over.
    api_ring_routing: bool = False
    # mongo_shards: N independent replica sets; ``jobs`` documents are
    # hash-placed by their id, point ops hit one shard,
    # cross-shard queries scatter-gather (repro.docstore.sharding).
    mongo_shards: int = 1
    # lcm_slices: partition the job-id space into this many slices;
    # each LCM instance leases a subset via raftkv (TTL below) and
    # deploys/GCs only its own slice. A crashed partition's leases
    # expire and a survivor adopts the orphaned slice. 0 = every LCM
    # sees every job (today's behaviour).
    lcm_slices: int = 0
    lcm_lease_ttl: float = 3.0
    lcm_slice_tick: float = 0.5  # keepalive + claim-reconcile cadence


class DlaasPlatform:
    """The running platform: substrates + core services + user client."""

    def __init__(self, config=None, seed=0):
        self.config = config or PlatformConfig()
        self.kernel = Kernel(seed=seed)
        self.tracer = Tracer(self.kernel,
                             span_tracing=self.config.span_tracing)
        self.metrics = MetricsRegistry()
        # The event recorder is always on: recording is pure in-memory
        # bookkeeping, so it cannot perturb the timeline, and tests can
        # assert on events whether or not the monitoring stack runs.
        self.events = EventRecorder(self.kernel, metrics=self.metrics)
        self.faults = FaultInjector(self.kernel, tracer=self.tracer,
                                    metrics=self.metrics, events=self.events)
        # Flight recorder for raftkv client histories; components pass
        # it to their EtcdClient so every KV op lands in one audit log.
        if self.config.history_recording:
            from ..audit import HistoryRecorder

            self.history = HistoryRecorder(self.kernel)
        else:
            self.history = None
        self.network = Network(
            self.kernel,
            latency=LatencyModel(NETWORK_LATENCY, NETWORK_JITTER),
            tracer=None,
            metrics=self.metrics,
        )
        self.nfs = NfsServer(self.kernel, metrics=self.metrics,
                             events=self.events)
        self.object_store = ObjectStore(self.kernel, metrics=self.metrics)
        self.k8s = KubernetesCluster(self.kernel, self.nfs, tracer=self.tracer,
                                     metrics=self.metrics, events=self.events)
        self.etcd = EtcdCluster(self.kernel, self.network,
                                size=self.config.etcd_size,
                                metrics=self.metrics, events=self.events)
        # mongo_shards=1 keeps the plain replica set (no shard-set
        # object at all); sharded platforms expose shard 0 as
        # ``self.mongo`` so member-level hooks (chaos, flusher, health)
        # keep their classic ``mongo-<i>`` targets.
        if self.config.mongo_shards > 1:
            from ..docstore import MongoShardSet

            self.mongo_shard_set = MongoShardSet(
                self.kernel, self.network, shards=self.config.mongo_shards,
                size=self.config.mongo_size, events=self.events)
            self.mongo = self.mongo_shard_set.shards[0]
        else:
            self.mongo_shard_set = None
            self.mongo = MongoReplicaSet(self.kernel, self.network,
                                         size=self.config.mongo_size,
                                         events=self.events)
        self.tokens = TokenRegistry()
        self.api_balancer = LoadBalancer("dlaas-api",
                                         ring=self.config.api_ring_routing)
        self.lcm_balancer = LoadBalancer("dlaas-lcm")
        self.health = HealthRegistry()
        register_platform_probes(self, self.health)
        self.monitoring = MonitoringStack(self)
        self._build_topology()
        self._register_images()
        self._started = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build_topology(self):
        for i in range(self.config.management_nodes):
            self.k8s.add_node(f"mgmt-{i}", gpus=0, labels={"pool": "management"})
        for i in range(self.config.gpu_nodes):
            self.k8s.add_node(f"gpu-{i}", gpus=self.config.gpus_per_node,
                              gpu_type=self.config.gpu_type,
                              labels={"pool": "gpu"})
        for pool_index, (count, gpus, gpu_type) in enumerate(self.config.extra_gpu_pools):
            for i in range(count):
                self.k8s.add_node(f"{gpu_type}-{pool_index}-{i}", gpus=gpus,
                                  gpu_type=gpu_type, labels={"pool": "gpu"})

    def _register_images(self):
        for image, size in IMAGE_SIZES.items():
            self.k8s.registry.register(image, size)
        for framework in FRAMEWORKS.values():
            self.k8s.registry.register(framework.image, framework.image_size_mb)
        # DaemonSet-style pre-pull of the small platform images on every
        # node: core services must restart fast (Fig. 4).
        for node_name in self.k8s.kubelets:
            for image in IMAGE_SIZES:
                self.k8s.registry.prewarm(node_name, image)

    def framework_image(self, framework_name):
        return get_framework(framework_name).image

    def model_size_mb(self, manifest):
        return get_model(manifest.model).checkpoint_mb

    def model_default_batch(self, manifest):
        return get_model(manifest.model).default_batch_per_gpu

    # ------------------------------------------------------------------
    # Startup
    # ------------------------------------------------------------------

    def start(self, settle=True):
        """Boot every layer; with ``settle`` the clock advances until the
        control plane is ready (leader elected, API pods serving)."""
        if self._started:
            return self
        self._started = True
        self.k8s.start()
        self.etcd.start()
        if self.mongo_shard_set is not None:
            self.mongo_shard_set.start()
        else:
            self.mongo.start()
        self._create_indexes()
        self._deploy_core_services()
        self.monitoring.start()
        if settle:
            self.kernel.run(until=self.kernel.now + 15.0)
        return self

    def _create_indexes(self):
        # Bootstrap-time schema setup, directly on the primary (the
        # replication stream mirrors collections created later). With
        # docstore sharding every shard gets the same schema.
        members = (list(self.mongo_shard_set.all_members())
                   if self.mongo_shard_set is not None
                   else self.mongo.members.values())
        for member in members:
            jobs = member.database.collection("jobs")
            jobs.create_index("job_id", unique=True)
            # Secondary equality indexes on the fields the LCM resync
            # ({status: QUEUED}), API listing ({tenant: ...}) and the
            # monitoring flusher/event queries ({job: ...}) hammer.
            jobs.create_index("status")
            jobs.create_index("tenant")
            member.database.collection("counters").create_index("_id_name", unique=True)
            events = member.database.collection("events")
            events.create_index("job")
            events.create_index("event_key")
            member.database.collection("metering").create_index("tenant")

    def _deploy_core_services(self):
        self.k8s.api.create(Deployment(
            "dlaas-api",
            PodTemplate(self._api_pod_spec, labels={"dlaas": "core", "app": "api"}),
            replicas=self.config.api_replicas,
        ))
        self.k8s.api.create(Deployment(
            "dlaas-lcm",
            PodTemplate(self._lcm_pod_spec, labels={"dlaas": "core", "app": "lcm"}),
            replicas=self.config.lcm_replicas,
        ))

    def _api_pod_spec(self):
        return PodSpec(
            containers=[ContainerSpec("api", "dlaas/api",
                                      workload=make_api_workload(self))],
            restart_policy=RESTART_ALWAYS,
            node_selector={"pool": "management"},
        )

    def _lcm_pod_spec(self):
        return PodSpec(
            containers=[ContainerSpec("lcm", "dlaas/lcm",
                                      workload=make_lcm_workload(self))],
            restart_policy=RESTART_ALWAYS,
            node_selector={"pool": "management"},
        )

    # ------------------------------------------------------------------
    # User-facing conveniences
    # ------------------------------------------------------------------

    def mongo_client(self, caller, tracer=None, **kwargs):
        """A docstore client for ``caller`` — shard-routing when the
        platform runs with ``mongo_shards > 1``, the classic replica-set
        client otherwise. Every component goes through this factory so
        the two topologies are interchangeable."""
        if self.mongo_shard_set is not None:
            from ..docstore import ShardedMongoClient

            return ShardedMongoClient(self.kernel, self.network,
                                      self.mongo_shard_set, caller=caller,
                                      tracer=tracer, **kwargs)
        from ..docstore import MongoClient

        return MongoClient(self.kernel, self.network, self.mongo,
                           caller=caller, tracer=tracer, **kwargs)

    def client(self, tenant="default"):
        token = self.tokens.create_tenant(tenant)
        route_key = tenant if self.config.api_ring_routing else None
        return DlaasClient(self, token, route_key=route_key)

    def admin_report(self):
        """Process generator: cross-tenant platform rollup (admin view).

        Uses the document store's aggregation pipeline: jobs by tenant
        and status, plus total GPU-seconds from metering.
        """
        mongo = self.mongo_client("admin-report")
        jobs = yield from mongo.aggregate("jobs", [
            {"$group": {"_id": "$tenant",
                        "jobs": {"$count": 1},
                        "statuses": {"$push": "$status"}}},
            {"$sort": {"jobs": -1}},
        ])
        usage = yield from mongo.aggregate("metering", [
            {"$group": {"_id": "$tenant",
                        "gpu_seconds": {"$sum": "$gpu_seconds"},
                        "api_calls": {"$sum": "$api_calls_total"}}},
            {"$sort": {"gpu_seconds": -1}},
        ])
        return {"jobs_by_tenant": jobs, "usage_by_tenant": usage,
                "capacity": self.k8s.capacity_summary()}

    def seed_training_data(self, bucket, credentials, size_mb):
        """Create a bucket with a dataset object (what users stage to COS)."""
        if bucket not in self.object_store.bucket_names():
            self.object_store.create_bucket(bucket, credentials)
        self.object_store.put_object(bucket, "dataset", credentials,
                                     size=int(size_mb * 1_000_000))

    def ensure_results_bucket(self, bucket, credentials):
        if bucket not in self.object_store.bucket_names():
            self.object_store.create_bucket(bucket, credentials)

    def run_process(self, generator, limit=None):
        """Spawn a generator and run the simulation to its completion."""
        return self.kernel.run_until_complete(self.kernel.spawn(generator),
                                              limit=limit)

    def run_for(self, seconds):
        self.kernel.run(until=self.kernel.now + seconds)
