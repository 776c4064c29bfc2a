"""The crash/restart contract of a polling component, once for all.

Every class below polls on a fixed interval by holding one
``repro.sim.Periodic`` (DESIGN.md "Lifecycle"). The contract it
inherits is checked here from the outside — kernel processes by name
and passes of its ``*_once()`` body — so that it holds for the class,
not just for the primitive:

* ``start()`` twice leaves exactly one live loop process;
* ``stop()`` kills it at the current instant, a second ``stop()`` is a
  no-op, and no pass begins afterwards;
* ``start()`` after ``stop()`` resumes on the class's phase: a pass at
  once (work-first) or one interval later (sleep-first);
* a generator body suspended mid-pass dies with the loop.
"""

import inspect
from types import SimpleNamespace

import pytest

from repro.audit import ConsistencyAuditor, HistoryRecorder
from repro.cluster import KubernetesCluster
from repro.cluster.autoscaler import ClusterAutoscaler
from repro.cluster.controllers import (DeploymentController, JobController,
                                       NodeController, PvcController,
                                       StatefulSetController)
from repro.cluster.kubelet import Kubelet
from repro.cluster.resources.node import Node, NodeResources
from repro.cluster.scheduler import Scheduler
from repro.core import ClusterMonitor, PlatformConfig
from repro.core.events import EventRecorder
from repro.core.partitions import SliceManager
from repro.monitoring import AlertEngine, MetricsScraper
from repro.monitoring.stack import EventFlusher
from repro.nfs import NfsServer
from repro.serving import ServingRuntime
from repro.serving.autoscaler import ServingAutoscaler
from repro.sim import Kernel, MetricsRegistry, Reconciler, WatchSource
from repro.sim.timeseries import TimeSeriesStore

from tests.serving.conftest import model_manifest

RPC_TIME = 0.01  # what one call to a SlowStore suspends its caller for


class RecordingKernel(Kernel):
    """A kernel that remembers what it spawned, so a test can count the
    live processes of one name without asking the component."""

    def __init__(self, seed=0):
        super().__init__(seed=seed)
        self.spawned = []

    def spawn(self, generator, name=""):
        process = super().spawn(generator, name=name)
        self.spawned.append(process)
        return process

    def live(self, name):
        return sum(1 for p in self.spawned if p.name == name and p.alive)


class Passes:
    """When the spied body's passes began and ended."""

    def __init__(self):
        self.began = []
        self.ended = []

    def spy(self, cls, method):
        """``cls`` with ``method`` recording each pass around the real
        one (a subclass: the loop binds its body at construction)."""
        original = getattr(cls, method)
        passes = self

        def plain(self):
            passes.began.append(self.kernel.now)
            result = original(self)
            passes.ended.append(self.kernel.now)
            return result

        def suspending(self):
            passes.began.append(self.kernel.now)
            result = yield from original(self)
            passes.ended.append(self.kernel.now)
            return result

        body = suspending if inspect.isgeneratorfunction(original) else plain
        return type(cls.__name__, (cls,), {method: body})


class SlowStore:
    """Stands in for a Mongo or etcd client: every method is a process
    generator that suspends ``RPC_TIME`` and then answers."""

    ANSWERS = {"find": [], "get_range": [], "lease_keepalive": {"ok": True},
               "cas": {"ok": True}, "update_one": (0, 0)}

    def __init__(self, kernel):
        self.kernel = kernel

    def __getattr__(self, op):
        def call(*_args, **_kwargs):
            yield self.kernel.sleep(RPC_TIME)
            return self.ANSWERS.get(op)

        return call


class Case:
    """One holder under test. ``first_pass`` is when its first pass
    begins after a ``start()`` at t; ``names`` its loop processes."""

    def __init__(self, holder, names, interval, first_pass=0.0, stop=None):
        self.holder = holder
        self.names = names
        self.interval = interval
        self.first_pass = first_pass
        self.start = holder.start
        self.stop = stop or holder.stop


def stub_platform(kernel, **extra):
    metrics = MetricsRegistry()
    return SimpleNamespace(
        kernel=kernel, metrics=metrics, events=EventRecorder(kernel),
        mongo_client=lambda _caller: SlowStore(kernel), **extra)


def bare_cluster(kernel):
    return KubernetesCluster(kernel, NfsServer(kernel))


def scraper(kernel, passes):
    holder = passes.spy(MetricsScraper, "scrape_once")(
        kernel, TimeSeriesStore(), interval=1.0, registry=MetricsRegistry())
    return Case(holder, ["metrics-scraper"], 1.0)


def flusher(kernel, passes):
    holder = passes.spy(EventFlusher, "flush_once")(
        kernel, EventRecorder(kernel), SimpleNamespace(members={}),
        interval=1.0)
    return Case(holder, ["event-flusher"], 1.0)


def alert_engine(kernel, passes):
    holder = passes.spy(AlertEngine, "evaluate_once")(
        kernel, TimeSeriesStore(), interval=1.0)
    return Case(holder, ["alert-engine"], 1.0)


def auditor(kernel, passes):
    holder = passes.spy(ConsistencyAuditor, "audit_once")(
        kernel, HistoryRecorder(kernel), interval=1.0)
    return Case(holder, ["consistency-auditor"], 1.0, first_pass=1.0)


def serving_autoscaler(kernel, passes):
    platform = stub_platform(kernel)
    platform.serving = ServingRuntime(kernel, platform.metrics,
                                      platform.events)
    platform.serving.ensure_model("m1", model_manifest())
    manager = SimpleNamespace(platform=platform, kernel=kernel,
                              address="serving-0", mongo=SlowStore(kernel))
    holder = passes.spy(ServingAutoscaler, "evaluate_once")(manager)
    return Case(holder, ["serving-autoscaler:serving-0"], 2.0)


def cluster_monitor(kernel, passes):
    platform = stub_platform(kernel, k8s=bare_cluster(kernel))
    holder = passes.spy(ClusterMonitor, "sample_once")(platform, interval=1.0)
    return Case(holder, ["cluster-monitor"], 1.0)


def slice_manager(kernel, passes):
    platform = stub_platform(kernel, config=PlatformConfig(
        lcm_slices=4, lcm_lease_ttl=5.0, lcm_slice_tick=1.0))
    holder = passes.spy(SliceManager, "_tick")(
        platform, "lcm-0", SlowStore(kernel))
    # Registration is two calls (grant the lease, put the member key).
    return Case(holder, ["slices:lcm-0"], 1.0, first_pass=2 * RPC_TIME + 1.0)


def controller(cls):
    def build(kernel, passes):
        cluster = bare_cluster(kernel)
        target = cluster if cls is ClusterAutoscaler else cluster.api
        extra = (cluster.nfs,) if cls is PvcController else ()
        holder = passes.spy(cls, "reconcile_once")(kernel, target, *extra)
        return Case(holder, [cls.name], holder._loop.interval)

    return build


def scheduler(kernel, passes):
    holder = passes.spy(Scheduler, "schedule_once")(
        kernel, bare_cluster(kernel).api)
    return Case(holder, ["scheduler"], 0.1)


def kubelet(kernel, passes):
    cluster = bare_cluster(kernel)
    node = cluster.api.create(Node("n1", NodeResources(gpus=1)))
    holder = passes.spy(Kubelet, "sync_once")(
        kernel, cluster.api, node, cluster.nfs, cluster.registry, cluster)
    # The machine dying is what stops a kubelet's loops.
    return Case(holder, ["kubelet:n1:sync", "kubelet:n1:heartbeat"], 0.1,
                stop=holder.crash)


def reconciler(kernel, passes):
    def list_keys():
        yield kernel.sleep(RPC_TIME)
        return ["k"]

    holder = passes.spy(Reconciler, "resync_once")(
        kernel, "t", lambda key: None, resync_interval=1.0)
    holder.add_source(WatchSource("listed", list_keys=list_keys))
    return Case(holder, ["reconciler:t:resync"], 1.0, first_pass=1.0)


CASES = {
    "MetricsScraper": scraper,
    "EventFlusher": flusher,
    "AlertEngine": alert_engine,
    "ConsistencyAuditor": auditor,
    "ServingAutoscaler": serving_autoscaler,
    "ClusterMonitor": cluster_monitor,
    "SliceManager": slice_manager,
    "JobController": controller(JobController),
    "StatefulSetController": controller(StatefulSetController),
    "DeploymentController": controller(DeploymentController),
    "NodeController": controller(NodeController),
    "PvcController": controller(PvcController),
    "ClusterAutoscaler": controller(ClusterAutoscaler),
    "Scheduler": scheduler,
    "Kubelet": kubelet,
    "Reconciler": reconciler,
}


# Bodies that suspend on calls, and the one holder that starts once (a
# stopped reconciler has closed its queue for good).
SUSPENDING = ["ClusterMonitor", "Reconciler", "ServingAutoscaler",
              "SliceManager"]
RESTARTABLE = sorted(set(CASES) - {"Reconciler"})


@pytest.fixture
def case(request):
    kernel = RecordingKernel(seed=3)
    passes = Passes()
    built = CASES[request.param](kernel, passes)
    built.kernel, built.passes = kernel, passes
    return built


def every(names):
    return pytest.mark.parametrize("case", names, indirect=True)


def run_for(case, intervals):
    case.kernel.run(until=case.kernel.now + intervals * case.interval)


def live(case):
    return [case.kernel.live(name) for name in case.names]


@every(sorted(CASES))
def test_start_twice_leaves_one_live_loop(case):
    case.start()
    case.start()
    run_for(case, 0)
    assert live(case) == [1] * len(case.names)
    # ... and one loop's worth of passes: a second loop would double
    # them (passes are short next to the interval, so whole intervals
    # count them).
    run_for(case, case.first_pass / case.interval + 2.5)
    assert len(case.passes.began) == 3


@every(sorted(CASES))
def test_stop_kills_at_once_and_stays_stopped(case):
    case.start()
    run_for(case, case.first_pass / case.interval + 0.5)
    assert len(case.passes.began) == 1
    case.stop()
    run_for(case, 0)
    assert live(case) == [0] * len(case.names)
    case.stop()  # a no-op, not an error
    run_for(case, 5)
    assert len(case.passes.began) == 1
    assert live(case) == [0] * len(case.names)


@every(RESTARTABLE)
def test_restart_resumes_on_the_documented_phase(case):
    case.start()
    run_for(case, case.first_pass / case.interval + 0.5)
    case.stop()
    run_for(case, 1.25)
    restarted_at = case.kernel.now
    case.start()
    run_for(case, case.first_pass / case.interval + 0.5)
    assert live(case) == [1] * len(case.names)
    assert case.passes.began[1:] == [
        pytest.approx(restarted_at + case.first_pass)]


@every(SUSPENDING)
def test_a_pass_suspended_mid_way_dies_with_the_loop(case):
    case.start()
    case.kernel.run(until=case.first_pass + RPC_TIME / 2)
    assert len(case.passes.began) == 1 and case.passes.ended == []
    case.stop()
    run_for(case, 0)
    assert live(case) == [0] * len(case.names)
    run_for(case, 5)
    assert case.passes.ended == []
