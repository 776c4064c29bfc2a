"""The crash/restart contract of a polling component, once for all.

Every class below polls on a fixed interval by holding one
``repro.sim.Periodic`` (DESIGN.md "Lifecycle"). The contract it
inherits is checked here through the class — its loops' ``running``
and when passes of its ``*_once()`` body began, ended or were killed —
so that it holds for the class, not just for the primitive:

* ``start()`` twice leaves exactly one live loop: one loop's passes;
* ``stop()`` ends it at the current instant, a second ``stop()`` is a
  no-op, and no pass begins afterwards;
* ``start()`` after ``stop()`` resumes on the class's phase: a pass at
  once (work-first) or one interval later (sleep-first) — except for a
  ``Reconciler``, which a ``stop()`` spends: its ``start()`` raises;
* a generator body suspended mid-pass dies with the loop, at once.
"""

import inspect
from types import SimpleNamespace

import pytest

from repro.audit import ConsistencyAuditor, HistoryRecorder
from repro.cluster.controllers import (DeploymentController, JobController,
                                       NodeController, PvcController,
                                       StatefulSetController)
from repro.cluster.kubelet import Kubelet
from repro.cluster.resources.node import Node, NodeResources
from repro.cluster.scheduler import Scheduler
from repro.core import PlatformConfig
from repro.core.partitions import SLICE_TICK, SliceManager
from repro.monitoring import AlertEngine, HealthRegistry, MetricsScraper
from repro.sim import (Kernel, MetricsRegistry, ProcessKilled, Reconciler,
                       SimError, Tracer, WatchSource)
from repro.sim.timeseries import TimeSeriesStore

from ..observers import Observers, kubernetes

RPC_TIME = 0.01  # what one call to a SlowStore suspends its caller for


class Passes:
    """When the spied body's passes began, ended and were killed."""

    def __init__(self):
        self.began = []
        self.ended = []
        self.killed = []

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
            try:
                result = yield from original(self)
            except ProcessKilled:
                passes.killed.append(self.kernel.now)
                raise
            passes.ended.append(self.kernel.now)
            return result

        body = suspending if inspect.isgeneratorfunction(original) else plain
        return type(cls.__name__, (cls,), {method: body})


class SlowStore:
    """Stands in for an etcd client: every method is a process
    generator that suspends ``RPC_TIME`` and then answers."""

    ANSWERS = {"get_range": [], "lease_keepalive": {"ok": True},
               "cas": {"ok": True}}

    def __init__(self, kernel):
        self.kernel = kernel

    def __getattr__(self, op):
        def call(*_args, **_kwargs):
            yield self.kernel.sleep(RPC_TIME)
            return self.ANSWERS.get(op)

        return call


class Case:
    """One holder under test. ``first_pass`` is when its first pass
    begins after a ``start()`` at t; ``loops`` its ``Periodic``s."""

    def __init__(self, holder, loops, interval, first_pass=0.0, stop=None):
        self.holder = holder
        self.loops = loops
        self.interval = interval
        self.first_pass = first_pass
        self.start = holder.start
        self.stop = stop or holder.stop


def stub_platform(kernel, **extra):
    observers = Observers(kernel)
    return SimpleNamespace(kernel=kernel, metrics=observers.metrics,
                           events=observers.events, **extra)


def scraper(kernel, passes):
    holder = passes.spy(MetricsScraper, "scrape_once")(
        kernel, TimeSeriesStore(), MetricsRegistry(), HealthRegistry(),
        interval=1.0)
    return Case(holder, [holder._loop], 1.0)


def alert_engine(kernel, passes):
    observers = Observers(kernel)
    holder = passes.spy(AlertEngine, "evaluate_once")(
        kernel, TimeSeriesStore(), observers.events, observers.metrics,
        interval=1.0)
    return Case(holder, [holder._loop], 1.0)


def auditor(kernel, passes):
    holder = passes.spy(ConsistencyAuditor, "audit_once")(
        kernel, HistoryRecorder(kernel), MetricsRegistry(), interval=1.0)
    return Case(holder, [holder._loop], 1.0, first_pass=1.0)


def slice_manager(kernel, passes):
    platform = stub_platform(kernel, config=PlatformConfig(lcm_slices=4))
    holder = passes.spy(SliceManager, "_tick")(
        platform, "lcm-0", SlowStore(kernel))
    # Registration is two calls (grant the lease, put the member key).
    return Case(holder, [holder._loop], SLICE_TICK,
                first_pass=2 * RPC_TIME + SLICE_TICK)


def controller(cls):
    def build(kernel, passes):
        cluster = kubernetes(kernel)
        extra = (cluster.nfs,) if cls is PvcController else ()
        holder = passes.spy(cls, "reconcile_once")(kernel, cluster.api, *extra)
        return Case(holder, [holder._loop], holder._loop.interval)

    return build


def scheduler(kernel, passes):
    observers = Observers(kernel)
    holder = passes.spy(Scheduler, "schedule_once")(
        kernel, kubernetes(kernel).api, observers.tracer, observers.metrics,
        observers.events)
    return Case(holder, [holder._loop], 0.1)


def kubelet(kernel, passes):
    cluster = kubernetes(kernel)
    node = cluster.api.create(Node("n1", NodeResources(gpus=1)))
    holder = passes.spy(Kubelet, "sync_once")(
        kernel, cluster.api, node, cluster.nfs, cluster.registry, cluster)
    # The machine dying is what stops a kubelet's loops.
    return Case(holder, list(holder._loops), 0.1, stop=holder.crash)


def reconciler(kernel, passes):
    def list_keys():
        yield kernel.sleep(RPC_TIME)
        return ["k"]

    holder = passes.spy(Reconciler, "resync_once")(
        kernel, "t", lambda key: None, resync_interval=1.0,
        tracer=Tracer(kernel), metrics=MetricsRegistry())
    holder.add_source(WatchSource("listed", list_keys=list_keys))
    return Case(holder, [holder._resync], 1.0, first_pass=1.0)


CASES = {
    "MetricsScraper": scraper,
    "AlertEngine": alert_engine,
    "ConsistencyAuditor": auditor,
    "SliceManager": slice_manager,
    "JobController": controller(JobController),
    "StatefulSetController": controller(StatefulSetController),
    "DeploymentController": controller(DeploymentController),
    "NodeController": controller(NodeController),
    "PvcController": controller(PvcController),
    "Scheduler": scheduler,
    "Kubelet": kubelet,
    "Reconciler": reconciler,
}


# Bodies that suspend on calls, and the one holder that starts once (a
# stopped reconciler has closed its queue for good).
SUSPENDING = ["Reconciler", "SliceManager"]
RESTARTABLE = sorted(set(CASES) - {"Reconciler"})


@pytest.fixture
def case(request):
    kernel = Kernel(seed=3)
    passes = Passes()
    built = CASES[request.param](kernel, passes)
    built.kernel, built.passes = kernel, passes
    return built


def every(names):
    return pytest.mark.parametrize("case", names, indirect=True)


def run_for(case, intervals):
    case.kernel.run(until=case.kernel.now + intervals * case.interval)


def running(case):
    return [loop.running for loop in case.loops]


@every(sorted(CASES))
def test_start_twice_leaves_one_live_loop(case):
    case.start()
    case.start()
    run_for(case, 0)
    assert running(case) == [True] * len(case.loops)
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
    assert running(case) == [False] * len(case.loops)
    case.stop()  # a no-op, not an error
    run_for(case, 5)
    assert len(case.passes.began) == 1
    assert running(case) == [False] * len(case.loops)


@every(RESTARTABLE)
def test_restart_resumes_on_the_documented_phase(case):
    case.start()
    run_for(case, case.first_pass / case.interval + 0.5)
    case.stop()
    run_for(case, 1.25)
    restarted_at = case.kernel.now
    case.start()
    run_for(case, case.first_pass / case.interval + 0.5)
    assert running(case) == [True] * len(case.loops)
    assert case.passes.began[1:] == [
        pytest.approx(restarted_at + case.first_pass)]


@every(sorted(set(CASES) - set(RESTARTABLE)))
def test_a_spent_holder_refuses_to_restart(case):
    # A restarted reconciler used to run its resync relists, the LCM's
    # Mongo find among them, into its closed queue for ever.
    case.start()
    run_for(case, case.first_pass / case.interval + 0.5)
    case.stop()
    with pytest.raises(SimError, match="'t'"):
        case.start()
    run_for(case, 5)
    assert running(case) == [False] * len(case.loops)
    assert len(case.passes.began) == 1


@every(SUSPENDING)
def test_a_pass_suspended_mid_way_dies_with_the_loop(case):
    case.start()
    case.kernel.run(until=case.first_pass + RPC_TIME / 2)
    assert len(case.passes.began) == 1 and case.passes.ended == []
    stopped_at = case.kernel.now
    case.stop()
    run_for(case, 0)
    assert running(case) == [False] * len(case.loops)
    assert case.passes.killed == [stopped_at]
    run_for(case, 5)
    assert case.passes.ended == [] and len(case.passes.began) == 1
