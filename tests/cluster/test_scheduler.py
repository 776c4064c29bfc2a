"""Scheduler placement tests: plain pods, one pass at a time.

Gang placement and preemption have their own files; this one drives
``schedule_once`` by hand against a bare API server (no kubelets, no
controllers), so every binding below is the scheduler's alone.
"""

import pytest

from repro.cluster import ContainerSpec, Pod, PodSpec, RESTART_NEVER
from repro.cluster.apiserver import ApiServer
from repro.cluster.kubelet import release_pod_resources
from repro.cluster.resources.node import NOT_READY, Node, NodeResources
from repro.cluster.scheduler import UNSCHEDULABLE_REPORT_INTERVAL, Scheduler
from repro.sim import Kernel


def pod(name, gpus=1, cpu=100, gpu_type="k80", selector=None, priority=0,
        gang=None, gang_size=0):
    spec = PodSpec(
        containers=[ContainerSpec("c", "tiny", gpus=gpus, cpu_millicores=cpu)],
        restart_policy=RESTART_NEVER, gpu_type=gpu_type,
        node_selector=selector, priority=priority,
        gang=gang, gang_size=gang_size,
    )
    return Pod(name, spec)


@pytest.fixture
def api():
    return ApiServer(Kernel(seed=3))


def add_node(api, name, gpus=4, gpu_type="k80", labels=None):
    return api.create(Node(name, NodeResources(gpus=gpus, gpu_type=gpu_type),
                           labels=labels))


def scheduler(api, **kwargs):
    return Scheduler(api.kernel, api, **kwargs)


def failed(api):
    return [e.name for e in api.events if e.reason == "FailedScheduling"]


def preempted(api):
    return [e.name for e in api.events if e.reason == "Preempted"]


def run_pass(sched, at=None):
    """One pass, at kernel time ``at`` if given. After any pass the
    unschedulable set holds only pods that are still waiting."""
    if at is not None:
        sched.kernel.run(until=at)
    bound = sched.schedule_once()
    waiting = {p.metadata.uid
               for p in sched.api.list("Pod", unscheduled=True)}
    assert set(sched.parked) <= waiting
    return bound


def remove(api, resident):
    release_pod_resources(api, resident)
    api.delete("Pod", resident.metadata.name)


class TestPodSpecShape:
    def test_totals_summed_once_over_containers(self):
        spec = PodSpec(containers=[
            ContainerSpec("a", "i", gpus=2, cpu_millicores=300, memory_mb=64),
            ContainerSpec("b", "i", gpus=1, cpu_millicores=200, memory_mb=32),
        ])
        assert (spec.total_gpus, spec.total_cpu, spec.total_memory) == (3, 500, 96)

    def test_shape_covers_everything_can_fit_reads(self):
        base = pod("a").spec
        assert pod("b").spec.shape == base.shape
        assert pod("b", selector={"zone": "x", "rack": "1"}).spec.shape == \
            pod("c", selector={"rack": "1", "zone": "x"}).spec.shape
        for other in (pod("b", gpus=2), pod("b", cpu=200),
                      pod("b", gpu_type="v100"),
                      pod("b", selector={"zone": "x"})):
            assert other.spec.shape != base.shape
        # Priority orders the queue; it does not change what fits.
        assert pod("b", priority=9).spec.shape == base.shape


class TestPlacement:
    def test_binpack_fills_the_fullest_feasible_node(self, api):
        add_node(api, "node-0")
        add_node(api, "node-1")
        sched = scheduler(api)
        api.create(pod("first", gpus=1))
        assert sched.schedule_once() == 1
        api.create(pod("second", gpus=2))
        assert sched.schedule_once() == 1
        # Both land on the node the first pod opened (fewest free GPUs).
        assert api.get("Pod", "first").node_name == "node-0"
        assert api.get("Pod", "second").node_name == "node-0"
        # A pod too big for what is left there goes to the other node.
        api.create(pod("third", gpus=2))
        sched.schedule_once()
        assert api.get("Pod", "third").node_name == "node-1"

    def test_spread_picks_the_emptiest_node(self, api):
        add_node(api, "node-0")
        add_node(api, "node-1")
        sched = scheduler(api, strategy="spread")
        for name in ("a", "b"):
            api.create(pod(name, gpus=1))
        assert sched.schedule_once() == 2
        assert {api.get("Pod", n).node_name for n in ("a", "b")} == \
            {"node-0", "node-1"}

    def test_unknown_strategy_rejected(self, api):
        with pytest.raises(ValueError):
            scheduler(api, strategy="random")

    def test_priority_then_age_orders_the_queue(self, api):
        add_node(api, "node-0", gpus=1)
        sched = scheduler(api, preemption=False)
        api.create(pod("old-low"))
        api.create(pod("young-high", priority=5))
        sched.schedule_once()
        assert api.get("Pod", "young-high").node_name == "node-0"
        assert api.get("Pod", "old-low").node_name is None


class TestInfeasibleNodes:
    def test_cordoned_node_takes_nothing(self, api):
        node = add_node(api, "node-0")
        node.unschedulable = True
        sched = scheduler(api)
        api.create(pod("p"))
        assert sched.schedule_once() == 0
        node.unschedulable = False
        assert sched.schedule_once() == 1

    def test_not_ready_node_takes_nothing(self, api):
        node = add_node(api, "node-0")
        node.condition = NOT_READY
        api.create(pod("p"))
        assert scheduler(api).schedule_once() == 0
        assert failed(api) == ["p"]

    def test_gpu_type_mismatch(self, api):
        add_node(api, "node-0", gpu_type="k80")
        api.create(pod("wants-v100", gpu_type="v100"))
        api.create(pod("any-gpu", gpu_type=None))
        assert scheduler(api).schedule_once() == 1
        assert api.get("Pod", "wants-v100").node_name is None
        assert api.get("Pod", "any-gpu").node_name == "node-0"

    def test_node_selector_mismatch(self, api):
        add_node(api, "node-0", labels={"zone": "a"})
        add_node(api, "node-1", labels={"zone": "b"})
        api.create(pod("wants-b", selector={"zone": "b"}))
        api.create(pod("wants-c", selector={"zone": "c"}))
        assert scheduler(api).schedule_once() == 1
        assert api.get("Pod", "wants-b").node_name == "node-1"
        assert api.get("Pod", "wants-c").node_name is None

    def test_deleting_or_bound_pods_are_not_rescheduled(self, api):
        add_node(api, "node-0")
        sched = scheduler(api)
        doomed = api.create(pod("doomed"))
        doomed.deletion_requested = True
        api.update(doomed)
        api.create(pod("p"))
        assert sched.schedule_once() == 1
        assert doomed.node_name is None
        assert sched.schedule_once() == 0  # nothing pending any more


class TestFailedShapeMemo:
    def test_every_failed_pod_still_gets_its_event(self, api):
        add_node(api, "node-0", gpus=2)
        sched = scheduler(api)
        for i in range(5):
            api.create(pod(f"p-{i}", gpus=1))
        # Each on the pass that parks it, in queue order.
        assert sched.schedule_once() == 2
        assert failed(api) == ["p-2", "p-3", "p-4"]
        api.create(pod("late", gpus=1))
        assert sched.schedule_once() == 0
        assert failed(api) == ["p-2", "p-3", "p-4", "late"]

    def test_one_node_scan_per_failed_shape_per_pass(self, api, monkeypatch):
        add_node(api, "node-0", gpus=2)
        sched = scheduler(api)
        scans = []
        pick = sched._pick_node
        monkeypatch.setattr(
            sched, "_pick_node",
            lambda p, nodes: scans.append(p.metadata.name) or pick(p, nodes))
        for i in range(4):
            api.create(pod(f"small-{i}", gpus=1))
        api.create(pod("wide", gpus=1, cpu=200))
        sched.schedule_once()
        # small-2 learns "no room" for its shape; small-3 reuses that;
        # wide is another shape and is looked up on its own.
        assert scans == ["small-0", "small-1", "small-2", "wide"]

    def test_a_smaller_shape_still_binds_after_a_bigger_one_failed(self, api):
        add_node(api, "node-0", gpus=2)
        sched = scheduler(api)
        api.create(pod("big", gpus=4))
        api.create(pod("small", gpus=1))
        assert sched.schedule_once() == 1
        assert api.get("Pod", "small").node_name == "node-0"

    def test_memo_does_not_outlive_the_pass(self, api):
        add_node(api, "node-0", gpus=1)
        sched = scheduler(api)
        first = api.create(pod("first"))
        api.create(pod("second"))
        assert sched.schedule_once() == 1
        assert sched.schedule_once() == 0
        # Release, then the same shape binds on the next pass.
        release_pod_resources(api, first)
        assert sched.schedule_once() == 1
        assert api.get("Pod", "second").node_name == "node-0"


class TestParkEpisodes:
    """A pod that fits nowhere parks: it is tried on every pass and
    reported once per episode, again only every report interval."""

    def test_one_report_per_episode_over_many_passes(self, api):
        add_node(api, "node-0", gpus=2)
        sched = scheduler(api)
        for i in range(5):
            api.create(pod(f"p-{i}"))
        assert run_pass(sched) == 2
        for tick in range(1, 100):
            assert run_pass(sched, at=tick * 0.1) == 0
        assert failed(api) == ["p-2", "p-3", "p-4"]
        assert len(sched.parked) == 3

    def test_reported_again_after_the_interval_and_not_before(self, api):
        add_node(api, "node-0", gpus=1)
        sched = scheduler(api)
        api.create(pod("resident"))
        run_pass(sched, at=2.0)
        api.create(pod("waiting"))
        run_pass(sched, at=5.0)
        assert failed(api) == ["waiting"]
        run_pass(sched, at=5.0 + UNSCHEDULABLE_REPORT_INTERVAL - 0.1)
        assert failed(api) == ["waiting"]
        run_pass(sched, at=5.0 + UNSCHEDULABLE_REPORT_INTERVAL)
        assert failed(api) == ["waiting"] * 2
        # The interval runs from the last report, not from the first.
        run_pass(sched, at=5.0 + 2 * UNSCHEDULABLE_REPORT_INTERVAL - 0.1)
        assert failed(api) == ["waiting"] * 2
        run_pass(sched, at=5.0 + 2 * UNSCHEDULABLE_REPORT_INTERVAL)
        assert failed(api) == ["waiting"] * 3
        assert [e.time for e in api.events
                if e.reason == "FailedScheduling"] == [
            5.0, 5.0 + UNSCHEDULABLE_REPORT_INTERVAL,
            5.0 + 2 * UNSCHEDULABLE_REPORT_INTERVAL]

    def test_gang_that_cannot_place_reports_once_under_its_first_member(
            self, api):
        add_node(api, "node-0", gpus=2)
        sched = scheduler(api)
        members = [api.create(pod(f"g-{i}", gang="job-a", gang_size=3))
                   for i in range(3)]
        for tick in range(20):
            assert run_pass(sched, at=tick * 0.1) == 0
        assert failed(api) == ["g-0"]
        assert list(sched.parked) == [members[0].metadata.uid]
        # Room for all three: the gang binds and the episode is over.
        add_node(api, "node-1", gpus=1)
        assert run_pass(sched, at=2.0) == 3
        assert sched.parked == {}

    def test_pod_deleted_while_parked_leaves_no_entry(self, api):
        add_node(api, "node-0", gpus=1)
        sched = scheduler(api)
        api.create(pod("resident"))
        run_pass(sched)
        waiting = [api.create(pod(f"w-{i}")) for i in range(3)]
        run_pass(sched)
        assert len(sched.parked) == 3
        api.delete("Pod", "w-1")
        run_pass(sched)
        assert set(sched.parked) == {waiting[0].metadata.uid,
                                     waiting[2].metadata.uid}
        # A deletion request takes a pod off the pending list too.
        waiting[0].deletion_requested = True
        api.update(waiting[0])
        api.delete("Pod", "w-2")
        run_pass(sched)
        assert sched.parked == {}
        assert failed(api) == ["w-0", "w-1", "w-2"]

    def test_same_name_with_a_new_uid_is_a_new_episode(self, api):
        # What a StatefulSet does with a crashed replica: same name,
        # another object.
        add_node(api, "node-0", gpus=1)
        sched = scheduler(api)
        api.create(pod("resident"))
        run_pass(sched)
        api.create(pod("web-0"))
        run_pass(sched)
        run_pass(sched)
        assert failed(api) == ["web-0"]
        api.delete("Pod", "web-0")
        api.create(pod("web-0"))
        run_pass(sched)
        run_pass(sched)
        assert failed(api) == ["web-0", "web-0"]
        assert len(sched.parked) == 1

    def test_a_pod_that_binds_and_a_later_one_that_fails_are_two_episodes(
            self, api):
        add_node(api, "node-0", gpus=1)
        sched = scheduler(api)
        first = api.create(pod("first"))
        api.create(pod("second"))
        assert run_pass(sched) == 1
        assert failed(api) == ["second"]
        remove(api, first)
        assert run_pass(sched) == 1
        assert sched.parked == {}
        api.create(pod("third"))
        assert run_pass(sched) == 0
        assert failed(api) == ["second", "third"]

    def test_parked_pod_with_priority_still_preempts_on_a_later_pass(
            self, api):
        add_node(api, "node-0", gpus=3)
        sched = scheduler(api)
        peer = api.create(pod("peer", priority=5))
        assert run_pass(sched) == 1
        # An equal-priority resident is no victim: urgent parks.
        urgent = api.create(pod("urgent", gpus=3, priority=5))
        assert run_pass(sched, at=0.1) == 0
        assert failed(api) == ["urgent"] and preempted(api) == []
        # Lower-priority residents appear; evicting them is not enough
        # while peer stays.
        for name in ("low-a", "low-b"):
            api.create(pod(name))
        assert run_pass(sched, at=0.2) == 2
        assert run_pass(sched, at=0.3) == 0
        assert preempted(api) == []
        # peer leaves: now the two are worth evicting, and the parked
        # pod's pass says so, one Preempted per victim.
        remove(api, peer)
        assert run_pass(sched, at=0.4) == 0
        assert preempted(api) == ["low-a", "low-b"]
        assert sched.preemptions == 2
        # Victims on their way out are not evicted twice.
        assert run_pass(sched, at=0.5) == 0
        assert preempted(api) == ["low-a", "low-b"]
        for name in ("low-a", "low-b"):
            remove(api, api.get("Pod", name))
        assert run_pass(sched, at=0.6) == 1
        assert urgent.node_name == "node-0"
        # One episode from parking to binding: one report.
        assert failed(api) == ["urgent"]
        assert sched.parked == {}

    def test_a_restarted_scheduler_reports_afresh(self, api):
        add_node(api, "node-0", gpus=1)
        sched = scheduler(api)
        api.create(pod("resident"))
        api.create(pod("waiting"))
        sched.start()
        api.kernel.run(until=1.0)
        assert failed(api) == ["waiting"]
        sched.stop()
        sched.start()
        api.kernel.run(until=2.0)
        sched.stop()
        assert failed(api) == ["waiting"] * 2
