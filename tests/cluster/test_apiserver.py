"""Unit tests for the API server and the image registry."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import (
    ConflictError,
    ContainerSpec,
    Deployment,
    ImageRegistry,
    NotFoundError,
    Pod,
    PodSpec,
    PodTemplate,
    RESTART_NEVER,
    StatefulSet,
)
from repro.cluster import images
from repro.cluster.apiserver import ApiServer
from repro.sim import Kernel, Tracer

from ..observers import k8s_events


def watchers_of(api, kind):
    """Live watch registrations of one kind, kind-wide and owner-scoped."""
    return sum(len(channels) for channels in api._watchers.get(kind, {}).values())


def make_pod(name, labels=None, owner=None):
    spec = PodSpec(containers=[ContainerSpec("c", "img")],
                   restart_policy=RESTART_NEVER)
    return Pod(name, spec, labels=labels, owner=owner)


@pytest.fixture
def kernel():
    return Kernel(seed=0)


@pytest.fixture
def api(kernel):
    return ApiServer(kernel, Tracer(kernel))


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

    def test_list_ordered_by_creation(self, kernel, api):
        api.create(make_pod("z"))

        def later():
            yield kernel.sleep(1.0)
            api.create(make_pod("a"))

        kernel.spawn(later())
        kernel.run()
        assert [p.metadata.name for p in api.list("Pod")] == ["z", "a"]


NODES = ("node-0", "node-1", "node-2")
OWNERS = (None, ("StatefulSet", "s"), ("Deployment", "d"), ("Job", "j"))
ROLES = ("learner", "helper")

_pick = st.integers(min_value=0, max_value=40)
OPERATIONS = st.lists(st.one_of(
    st.tuples(st.just("create"), st.sampled_from(("a", "b", "c", "d", "e")),
              st.sampled_from(OWNERS),
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
    for role in ROLES:
        assert api.list("Pod", unscheduled=True, selector={"role": role}) == \
            [p for p in unscheduled if p.metadata.labels["role"] == role]
    for owner in OWNERS[1:] + (("Job", "ghost"),):
        owned = [p for p in everything if p.metadata.owner == owner]
        assert api.list("Pod", owner=owner) == owned
        assert api.list("Pod", owner=owner, selector={"role": "helper"}) == \
            [p for p in owned if p.metadata.labels["role"] == "helper"]
        assert api.list("Pod", owner=owner, node_name="node-1") == \
            [p for p in owned if p.node_name == "node-1"]


class TestPodIndexes:
    @settings(max_examples=150, deadline=None)
    @given(OPERATIONS)
    def test_indexed_reads_equal_filtered_full_list(self, operations):
        kernel = Kernel(seed=0)
        api = ApiServer(kernel, Tracer(kernel))
        for operation in operations:
            pending = api.list("Pod", unscheduled=True)
            version = api.unscheduled_version
            verb = operation[0]
            if verb == "tick":
                kernel.run(until=kernel.now + 1.0)
            elif verb == "create":
                _verb, name, owner, role = operation
                if not api.exists("Pod", name):
                    spec = PodSpec(containers=[ContainerSpec("c", "img")],
                                   restart_policy=RESTART_NEVER)
                    api.create(Pod(name, spec, labels={"role": role},
                                   owner=owner))
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
                    api.delete("Pod", pod.metadata.name)
                else:
                    api.update(pod)
            assert_indexes_match_full_list(api)
            # The scheduler's quiet pass rests on this: an equal version
            # is an equal pending list.
            assert ((api.unscheduled_version == version)
                    == (api.list("Pod", unscheduled=True) == pending))

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
        assert watchers_of(api, "Pod") == 1
        channel.cancel()
        assert watchers_of(api, "Pod") == 0
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
        assert watchers_of(api, "Pod") == 2
        api.create(make_pod("p"))
        assert watchers_of(api, "Pod") == 1
        assert len(kept) == 1

    def test_owner_scoped_watch_sees_its_owner_and_its_pods(self, api):
        owner = ("StatefulSet", "s")
        pods = api.watch("Pod", owner=owner)
        itself = api.watch("StatefulSet", owner=owner)
        everything = api.watch("Pod")
        api.create(make_pod("s-0", owner=owner))
        api.create(make_pod("t-0", owner=("StatefulSet", "t")))
        api.create(make_pod("bare"))
        api.create(StatefulSet("t", PodTemplate(lambda: None), 1))
        api.create(StatefulSet("s", PodTemplate(lambda: None), 1))
        api.delete("Pod", "s-0")
        api.delete("StatefulSet", "s")

        def drain(channel):
            return [(event, resource.metadata.name)
                    for event, resource in iter(channel.get_nowait, None)]

        assert drain(pods) == [("ADDED", "s-0"), ("DELETED", "s-0")]
        assert drain(itself) == [("ADDED", "s"), ("DELETED", "s")]
        assert len(drain(everything)) == 4
        assert watchers_of(api, "Pod") == 2
        assert watchers_of(api, "StatefulSet") == 1
        assert api.watcher_count() == 3

    def test_owner_scoped_watches_leave_no_registration(self, api):
        owner = ("Deployment", "d")
        watches = [api.watch("Pod", owner=owner), api.watch("Pod", owner=owner),
                   api.watch("Deployment", owner=owner)]
        assert api.watcher_count() == 3
        for watch in watches:
            watch.cancel()
            watch.cancel()  # idempotent
        assert api.watcher_count() == 0
        assert api._watchers == {}
        # A watcher that died without cancelling is pruned by the next
        # event of its key, and its key goes with it.
        kept = api.watch("Pod", owner=owner)
        leaked = api.watch("Pod", owner=owner)
        crashed = api.watch("Deployment", owner=owner)
        leaked.close()
        crashed.close()
        api.create(make_pod("d-0", owner=owner))
        assert api.watcher_count() == 2
        assert len(kept) == 1
        api.create(Deployment("d", PodTemplate(lambda: None), 1))
        assert api.watcher_count() == 1
        kept.cancel()
        assert api.watcher_count() == 0
        assert api._watchers == {}

    def test_unwatch_tolerates_foreign_channel(self, api):
        other = ApiServer(api.kernel, Tracer(api.kernel))
        channel = other.watch("Pod")
        api.unwatch(channel)  # never registered here: no-op, but closed
        assert channel.closed


class TestEvents:
    def test_record_and_filter(self, api):
        api.kernel.run(until=2.5)
        api.record_event("Pod", "p", "Started", "on node-1")
        api.record_event("Job", "j", "Completed")
        assert k8s_events(api) == [
            (2.5, "Pod", "p", "Started", "on node-1"),
            (2.5, "Job", "j", "Completed", "")]
        assert len(api.tracer.records) == 2


class TestImageRegistry:
    def test_pull_time_scales_with_size(self, kernel, monkeypatch):
        monkeypatch.setattr(images, "PULL_BANDWIDTH_MB", 100.0)
        monkeypatch.setattr(images, "CACHED_CHECK_TIME", 0.0)
        registry = ImageRegistry(kernel)
        registry.register("small", 100).register("big", 1000)

        def pull(image):
            yield from registry.pull("node", image)
            return kernel.now

        t_small = kernel.run_until_complete(kernel.spawn(pull("small")))
        start = kernel.now
        t_big = kernel.run_until_complete(kernel.spawn(pull("big")))
        assert t_small == pytest.approx(1.0)
        assert t_big - start == pytest.approx(10.0)

    def test_cache_hit_is_fast(self, kernel, monkeypatch):
        monkeypatch.setattr(images, "PULL_BANDWIDTH_MB", 100.0)
        registry = ImageRegistry(kernel)
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

        def pull_on_both():
            yield from registry.pull("node-a", "img")
            yield from registry.pull("node-b", "img")

        kernel.run_until_complete(kernel.spawn(pull_on_both()))
        assert registry.cache_hits == 1 and registry.pulls == 1

    def test_unknown_image_rejected(self, kernel):
        registry = ImageRegistry(kernel)
        with pytest.raises(NotFoundError):
            registry.size_of("ghost")
        with pytest.raises(ValueError):
            registry.register("bad", 0)
