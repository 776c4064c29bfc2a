"""Unit tests for the API server, image registry and kubectl extras."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import (
    ConflictError,
    ContainerSpec,
    ImageRegistry,
    NotFoundError,
    Pod,
    PodSpec,
    RESTART_ALWAYS,
    RESTART_NEVER,
)
from repro.cluster.apiserver import ApiServer
from repro.sim import Kernel


def make_pod(name, labels=None):
    spec = PodSpec(containers=[ContainerSpec("c", "img")],
                   restart_policy=RESTART_NEVER)
    return Pod(name, spec, labels=labels)


@pytest.fixture
def kernel():
    return Kernel(seed=0)


@pytest.fixture
def api(kernel):
    return ApiServer(kernel)


class TestCrud:
    def test_create_get(self, api):
        pod = api.create(make_pod("p"))
        assert api.get("Pod", "p") is pod
        assert pod.metadata.creation_time == 0.0
        assert pod.metadata.resource_version == 1

    def test_duplicate_create_conflicts(self, api):
        api.create(make_pod("p"))
        with pytest.raises(ConflictError):
            api.create(make_pod("p"))

    def test_get_missing_raises(self, api):
        with pytest.raises(NotFoundError):
            api.get("Pod", "ghost")
        assert api.get_or_none("Pod", "ghost") is None

    def test_update_bumps_version(self, api):
        pod = api.create(make_pod("p"))
        api.update(pod)
        assert pod.metadata.resource_version == 2

    def test_update_deleted_raises(self, api):
        pod = api.create(make_pod("p"))
        api.delete("Pod", "p")
        with pytest.raises(NotFoundError):
            api.update(pod)

    def test_delete_missing_raises(self, api):
        with pytest.raises(NotFoundError):
            api.delete("Pod", "ghost")

    def test_list_by_selector(self, api):
        api.create(make_pod("a", labels={"role": "learner"}))
        api.create(make_pod("b", labels={"role": "helper"}))
        api.create(make_pod("c", labels={"role": "learner", "job": "j1"}))
        learners = api.list("Pod", selector={"role": "learner"})
        assert [p.metadata.name for p in learners] == ["a", "c"]
        assert api.list("Pod", selector={"role": "learner", "job": "j1"})[0] \
            .metadata.name == "c"

    def test_namespaces_isolate(self, api):
        spec = PodSpec(containers=[ContainerSpec("c", "img")],
                       restart_policy=RESTART_NEVER)
        api.create(Pod("same", spec, namespace="ns1"))
        api.create(Pod("same", spec, namespace="ns2"))
        assert len(api.list("Pod")) == 2
        assert len(api.list("Pod", namespace="ns1")) == 1

    def test_list_ordered_by_creation(self, kernel, api):
        api.create(make_pod("z"))

        def later():
            yield kernel.sleep(1.0)
            api.create(make_pod("a"))

        kernel.spawn(later())
        kernel.run()
        assert [p.metadata.name for p in api.list("Pod")] == ["z", "a"]


NODES = ("node-0", "node-1", "node-2")
NAMESPACES = ("default", "other")
OWNERS = (None, ("StatefulSet", "s"), ("Deployment", "d"), ("Job", "j"))
ROLES = ("learner", "helper")

_pick = st.integers(min_value=0, max_value=40)
OPERATIONS = st.lists(st.one_of(
    st.tuples(st.just("create"), st.sampled_from(("a", "b", "c", "d", "e")),
              st.sampled_from(NAMESPACES), st.sampled_from(OWNERS),
              st.sampled_from(ROLES)),
    st.tuples(st.just("bind"), _pick, st.sampled_from(NODES)),
    st.tuples(st.just("phase"), _pick,
              st.sampled_from(("Running", "Succeeded", "Failed"))),
    st.tuples(st.just("request-deletion"), _pick),
    st.tuples(st.just("update"), _pick),
    st.tuples(st.just("delete"), _pick),
    st.tuples(st.just("tick")),
), max_size=40)


def assert_indexes_match_full_list(api):
    """Every indexed read equals the full list, filtered: same pods,
    same order."""
    everything = api.list("Pod")
    for node in NODES + ("ghost",):
        assert api.list("Pod", node_name=node) == \
            [p for p in everything if p.node_name == node]
    unscheduled = [p for p in everything
                   if p.phase == "Pending" and p.node_name is None
                   and not p.deletion_requested]
    assert api.list("Pod", unscheduled=True) == unscheduled
    assert api.list("Pod", unscheduled=True, node_name="node-0") == []
    for namespace in NAMESPACES:
        assert api.list("Pod", unscheduled=True, namespace=namespace) == \
            [p for p in unscheduled if p.metadata.namespace == namespace]
    for owner in OWNERS[1:] + (("Job", "ghost"),):
        owned = [p for p in everything if p.metadata.owner == owner]
        assert api.list("Pod", owner=owner) == owned
        assert api.list("Pod", owner=owner, namespace="other") == \
            [p for p in owned if p.metadata.namespace == "other"]
        assert api.list("Pod", owner=owner, selector={"role": "helper"}) == \
            [p for p in owned if p.metadata.labels["role"] == "helper"]
        assert api.list("Pod", owner=owner, node_name="node-1") == \
            [p for p in owned if p.node_name == "node-1"]


class TestPodIndexes:
    @settings(max_examples=150, deadline=None)
    @given(OPERATIONS)
    def test_indexed_reads_equal_filtered_full_list(self, operations):
        kernel = Kernel(seed=0)
        api = ApiServer(kernel)
        for operation in operations:
            verb = operation[0]
            if verb == "tick":
                kernel.run(until=kernel.now + 1.0)
            elif verb == "create":
                _verb, name, namespace, owner, role = operation
                if not api.exists("Pod", name, namespace):
                    spec = PodSpec(containers=[ContainerSpec("c", "img")],
                                   restart_policy=RESTART_NEVER)
                    api.create(Pod(name, spec, namespace=namespace,
                                   labels={"role": role}, owner=owner))
            else:
                pods = api.list("Pod")
                if not pods:
                    continue
                pod = pods[operation[1] % len(pods)]
                if verb == "bind":
                    pod.node_name = operation[2]
                elif verb == "phase":
                    pod.phase = operation[2]
                elif verb == "request-deletion":
                    pod.deletion_requested = True
                if verb == "delete":
                    api.delete("Pod", pod.metadata.name, pod.metadata.namespace)
                else:
                    api.update(pod)
            assert_indexes_match_full_list(api)

    def test_same_name_same_instant_orders_by_namespace(self, api):
        # (creation_time, name) ties only across namespaces; the
        # namespace breaks them the same way in every view.
        spec = PodSpec(containers=[ContainerSpec("c", "img")],
                       restart_policy=RESTART_NEVER)
        api.create(Pod("same", spec, namespace="zz", owner=("Job", "j")))
        api.create(Pod("same", spec, namespace="aa", owner=("Job", "j")))
        order = [p.metadata.namespace for p in api.list("Pod")]
        assert order == ["aa", "zz"]
        assert [p.metadata.namespace
                for p in api.list("Pod", owner=("Job", "j"))] == order

    def test_indexed_list_is_a_fresh_list(self, api):
        pod = api.create(make_pod("p"))
        api.list("Pod", unscheduled=True).clear()
        assert api.list("Pod", unscheduled=True) == [pod]

    def test_emptied_groups_leave_nothing_behind(self, api):
        pod = api.create(make_pod("p"))
        pod.node_name = "node-0"
        api.update(pod)
        assert api.list("Pod", node_name="node-0") == [pod]
        assert api.list("Pod", node_name="ghost") == []
        api.delete("Pod", "p")
        assert api.list("Pod", node_name="node-0") == []
        assert not api._pod_groups and not api._pod_group_views \
            and not api._pod_filed


class TestWatches:
    def test_watch_sees_lifecycle(self, api):
        channel = api.watch("Pod")
        pod = api.create(make_pod("p"))
        api.update(pod)
        api.delete("Pod", "p")
        events = []
        while len(channel):
            events.append(channel.get_nowait()[0])
        assert events == ["ADDED", "MODIFIED", "DELETED"]

    def test_watch_scoped_to_kind(self, api):
        channel = api.watch("Job")
        api.create(make_pod("p"))
        assert len(channel) == 0

    def test_cancel_deregisters_and_closes(self, api):
        channel = api.watch("Pod")
        assert api.watcher_count("Pod") == 1
        channel.cancel()
        assert api.watcher_count("Pod") == 0
        assert channel.closed
        channel.cancel()  # idempotent
        api.create(make_pod("p"))  # no delivery to a cancelled watch
        assert len(channel) == 0

    def test_closed_watches_pruned_on_notify(self, api):
        # A watcher that died without cancelling (container crash) must
        # not leak its registration forever.
        kept = api.watch("Pod")
        leaked = api.watch("Pod")
        leaked.close()
        assert api.watcher_count("Pod") == 2
        api.create(make_pod("p"))
        assert api.watcher_count("Pod") == 1
        assert len(kept) == 1

    def test_unwatch_tolerates_foreign_channel(self, api):
        other = ApiServer(api.kernel)
        channel = other.watch("Pod")
        api.unwatch(channel)  # never registered here: no-op, but closed
        assert channel.closed


class TestEvents:
    def test_record_and_filter(self, api):
        api.record_event("Pod", "p", "Started", "on node-1")
        api.record_event("Job", "j", "Completed")
        assert len(api.events) == 2


class TestImageRegistry:
    def test_pull_time_scales_with_size(self, kernel):
        registry = ImageRegistry(kernel, pull_bandwidth_mb=100.0,
                                 cached_check_time=0.0)
        registry.register("small", 100).register("big", 1000)

        def pull(image):
            yield from registry.pull("node", image)
            return kernel.now

        t_small = kernel.run_until_complete(kernel.spawn(pull("small")))
        start = kernel.now
        t_big = kernel.run_until_complete(kernel.spawn(pull("big")))
        assert t_small == pytest.approx(1.0)
        assert t_big - start == pytest.approx(10.0)

    def test_cache_hit_is_fast(self, kernel):
        registry = ImageRegistry(kernel, pull_bandwidth_mb=100.0)
        registry.register("img", 1000)

        def pull_twice():
            yield from registry.pull("node", "img")
            first = kernel.now
            yield from registry.pull("node", "img")
            return first, kernel.now

        first, second = kernel.run_until_complete(kernel.spawn(pull_twice()))
        assert second - first < 0.1
        assert registry.pulls == 1 and registry.cache_hits == 1

    def test_caches_are_per_node(self, kernel):
        registry = ImageRegistry(kernel)
        registry.register("img", 100)
        registry.prewarm("node-a", "img")
        assert registry.is_cached("node-a", "img")
        assert not registry.is_cached("node-b", "img")

    def test_evict_forces_repull(self, kernel):
        registry = ImageRegistry(kernel)
        registry.register("img", 100)
        registry.prewarm("node", "img")
        registry.evict_node_cache("node")
        assert not registry.is_cached("node", "img")

    def test_unknown_image_rejected(self, kernel):
        registry = ImageRegistry(kernel)
        with pytest.raises(NotFoundError):
            registry.size_of("ghost")
        with pytest.raises(ValueError):
            registry.register("bad", 0)


class TestKubectlNodeOps:
    def test_cordon_blocks_scheduling(self, kernel, cluster):
        for name in ("node-0", "node-1", "node-2"):
            cluster.kubectl.cordon(name)
        pod = make_pod("p")
        cluster.api.create(pod)
        kernel.run(until=2.0)
        assert pod.node_name is None
        cluster.kubectl.uncordon("node-0")
        kernel.run(until=4.0)
        assert pod.node_name == "node-0"

    def test_drain_evicts_and_cordons(self, kernel, cluster):
        def forever(ctx):
            yield ctx.kernel.sleep(10_000)
            return 0

        spec = PodSpec(containers=[ContainerSpec("c", "tiny", workload=forever)],
                       restart_policy=RESTART_ALWAYS)
        pod = Pod("victim", spec)
        cluster.api.create(pod)
        kernel.run(until=3.0)
        node = pod.node_name
        cluster.kubectl.drain(node)
        kernel.run(until=8.0)
        assert not cluster.api.exists("Pod", "victim")
        assert cluster.api.get("Node", node, namespace="").unschedulable
