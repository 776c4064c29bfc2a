"""Unit tests for the reconciler runtime (work queue, watch pumps)."""

import pytest

from repro.sim import (
    Channel,
    ChannelClosed,
    Kernel,
    MetricsRegistry,
    Reconciler,
    Tracer,
    WatchSource,
    WorkQueue,
)


@pytest.fixture
def kernel():
    return Kernel(seed=1)


def drain(kernel, queue, count):
    """Run a process collecting ``count`` keys (with their times)."""
    got = []

    def getter():
        while len(got) < count:
            key = yield queue.get()
            got.append((kernel.now, key))

    kernel.spawn(getter())
    return got


def make_reconciler(kernel, reconcile, **kwargs):
    return Reconciler(kernel, "t", reconcile, tracer=Tracer(kernel),
                      metrics=MetricsRegistry(), **kwargs)


class TestWorkQueueCoalescing:
    def test_duplicate_adds_coalesce(self, kernel):
        registry = MetricsRegistry()
        queue = WorkQueue(kernel, registry, name="q")
        queue.add("a")
        queue.add("a")
        queue.add("b")
        assert len(queue) == 2
        adds = registry.get("workqueue_adds_total").labels(name="q")
        assert adds.value == 3
        assert queue.coalesced == 1

    def test_fifo_dispatch(self, kernel):
        queue = WorkQueue(kernel, MetricsRegistry())
        for key in ("a", "b", "c"):
            queue.add(key)
        got = drain(kernel, queue, 3)
        kernel.run(until=1.0)
        assert [key for _t, key in got] == ["a", "b", "c"]

    def test_key_can_be_readded_after_dispatch(self, kernel):
        queue = WorkQueue(kernel, MetricsRegistry())
        got = drain(kernel, queue, 2)
        queue.add("a")
        kernel.run(until=0.1)
        queue.add("a")  # no longer queued: must not coalesce away
        kernel.run(until=0.2)
        assert [key for _t, key in got] == ["a", "a"]

    def test_waiting_getter_receives_directly(self, kernel):
        queue = WorkQueue(kernel, MetricsRegistry())
        got = drain(kernel, queue, 1)
        kernel.run(until=0.1)
        queue.add("a")
        kernel.run(until=0.2)
        assert [key for _t, key in got] == ["a"]
        assert len(queue) == 0


class TestWorkQueueDelaysAndBackoff:
    def test_add_after_fires_at_delay(self, kernel):
        queue = WorkQueue(kernel, MetricsRegistry())
        got = drain(kernel, queue, 1)
        queue.add_after("a", 2.5)
        kernel.run(until=5.0)
        assert got == [(2.5, "a")]

    def test_delayed_adds_keep_earliest_fire_time(self, kernel):
        queue = WorkQueue(kernel, MetricsRegistry())
        got = drain(kernel, queue, 1)
        queue.add_after("a", 3.0)
        queue.add_after("a", 1.0)  # earlier wins
        queue.add_after("a", 9.0)  # later is absorbed
        kernel.run(until=20.0)
        assert got == [(1.0, "a")]

    def test_immediate_add_wins_over_pending_timer(self, kernel):
        queue = WorkQueue(kernel, MetricsRegistry())
        got = drain(kernel, queue, 1)
        queue.add_after("a", 4.0)
        queue.add("a")
        kernel.run(until=10.0)
        assert [key for _t, key in got] == ["a"]
        assert got[0][0] == 0.0

    def test_requeue_backoff_is_exponential_and_capped(self, kernel):
        queue = WorkQueue(kernel, MetricsRegistry())
        queue.backoff_base, queue.backoff_max = 0.1, 0.5
        delays = [queue.requeue("a") for _ in range(5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_forget_resets_backoff(self, kernel):
        queue = WorkQueue(kernel, MetricsRegistry())
        queue.backoff_base, queue.backoff_max = 0.1, 5.0
        queue.requeue("a")
        queue.requeue("a")
        queue.forget("a")
        assert queue.requeue("a") == 0.1


class TestWorkQueueClose:
    def test_close_fails_pending_getters(self, kernel):
        queue = WorkQueue(kernel, MetricsRegistry())
        outcome = []

        def getter():
            try:
                yield queue.get()
            except ChannelClosed:
                outcome.append("closed")

        kernel.spawn(getter())
        kernel.run(until=0.1)
        queue.close()
        kernel.run(until=0.2)
        assert outcome == ["closed"]

    def test_add_and_timers_ignored_after_close(self, kernel):
        queue = WorkQueue(kernel, MetricsRegistry())
        queue.add_after("a", 1.0)
        queue.close()
        queue.add("b")
        kernel.run(until=2.0)
        assert len(queue) == 0


def test_get_event_is_named_only_under_debug():
    # Channel.get's convention: the f-string is paid for when asked.
    assert WorkQueue(Kernel(), MetricsRegistry(), name="q").get().name == ""
    kernel = Kernel()
    kernel.debug = True
    named = WorkQueue(kernel, MetricsRegistry(), name="q").get()
    assert named.name == "workqueue.get(q)"


class TestQueuesSharingAKind:
    """Per-job queues label their series by kind, so several live
    queues move the same metric children."""

    def make(self, kernel, count=3):
        registry = MetricsRegistry()
        queues = [WorkQueue(kernel, name=f"guardian:job-{i}",
                            metrics=registry, kind="guardian")
                  for i in range(count)]
        return registry, queues

    def depth(self, registry):
        return registry.get("workqueue_depth").labels(name="guardian").value

    def test_one_child_per_family_whatever_the_queue_count(self, kernel):
        registry, _queues = self.make(kernel, count=5)
        for name in registry.names():
            children = registry.get(name).children()
            assert [labels for labels, _child in children] == [("guardian",)]

    def test_counter_is_the_sum_of_the_queues_adds(self, kernel):
        registry, queues = self.make(kernel)
        for i, queue in enumerate(queues):
            for key in range(i + 2):
                queue.add(key)
            queue.add(0)  # coalesced adds count too
        adds = registry.get("workqueue_adds_total").labels(name="guardian")
        assert adds.value == 3 + 4 + 5

    def test_gauge_is_the_sum_of_the_queues_depths(self, kernel):
        registry, queues = self.make(kernel)
        queues[0].add("a")
        queues[0].add("b")
        queues[1].add("a")
        assert self.depth(registry) == sum(len(q) for q in queues) == 3
        drain(kernel, queues[0], 1)
        kernel.run(until=0.1)
        assert self.depth(registry) == sum(len(q) for q in queues) == 2

    def test_close_gives_back_the_keys_still_queued(self, kernel):
        registry, queues = self.make(kernel)
        queues[0].add("a")
        queues[0].add("b")
        queues[1].add("a")
        queues[0].close()  # a killed Guardian: nobody drains its queue
        assert self.depth(registry) == len(queues[1]) == 1
        # Draining the closed queue's leftovers moves nothing twice.
        drain(kernel, queues[0], 2)
        kernel.run(until=0.1)
        assert self.depth(registry) == 1
        queues[0].close()
        assert self.depth(registry) == 1

    def test_reconciler_passes_its_kind_to_queue_and_work_histogram(
            self, kernel):
        registry = MetricsRegistry()
        reconcilers = [
            Reconciler(kernel, f"controller:job-{i}", lambda key: None,
                       tracer=Tracer(kernel), metrics=registry,
                       kind="controller").start()
            for i in range(2)]
        for reconciler in reconcilers:
            reconciler.queue.add("k")
        kernel.run(until=1.0)
        for name in ("workqueue_adds_total", "workqueue_depth",
                     "workqueue_queue_duration_seconds",
                     "workqueue_work_duration_seconds"):
            children = registry.get(name).children()
            assert [labels for labels, _child in children] == \
                [("controller",)], name
        work = registry.get("workqueue_work_duration_seconds")
        assert work.labels(name="controller").count == 2

    def test_kind_defaults_to_the_queue_name(self, kernel):
        registry = MetricsRegistry()
        WorkQueue(kernel, name="deploy:lcm-0", metrics=registry).add("a")
        depth = registry.get("workqueue_depth")
        assert depth.labels(name="deploy:lcm-0").value == 1


class TestReconciler:
    def test_static_keys_reconcile_at_start_and_resync(self, kernel):
        seen = []
        reconciler = make_reconciler(
            kernel, lambda key: seen.append((kernel.now, key)),
            resync_interval=1.0)
        reconciler.add_static_key("x")
        reconciler.start()
        kernel.run(until=2.5)
        reconciler.stop()
        assert [t for t, _k in seen] == [0.0, 1.0, 2.0]

    def test_watch_events_enqueue_keys(self, kernel):
        channel = Channel(kernel)
        seen = []
        reconciler = make_reconciler(kernel, lambda key: seen.append(key))
        reconciler.watch_channel("src", subscribe=lambda: channel,
                                 keys_of=lambda event: [event])
        reconciler.start()
        kernel.run(until=0.1)
        channel.put("a")
        channel.put("b")
        kernel.run(until=0.2)
        reconciler.stop()
        assert seen == ["a", "b"]

    def test_delayed_keys_coalesce_progress_events(self, kernel):
        channel = Channel(kernel)
        seen = []
        reconciler = make_reconciler(
            kernel, lambda key: seen.append((kernel.now, key)))
        reconciler.watch_channel("src", subscribe=lambda: channel,
                                 keys_of=lambda event: [(event, 1.0)])
        reconciler.start()
        kernel.run(until=0.1)
        for _ in range(5):
            channel.put("a")  # a burst of progress events
        kernel.run(until=5.0)
        reconciler.stop()
        assert seen == [(1.1, "a")]  # burst at t=0.1, one pass 1s later

    def test_failed_reconcile_requeues_with_backoff(self, kernel):
        attempts = []

        def reconcile(key):
            attempts.append(kernel.now)
            if len(attempts) < 3:
                raise RuntimeError("transient")

        reconciler = make_reconciler(kernel, reconcile)
        reconciler.queue.backoff_base = 1.0
        reconciler.add_static_key("x")
        reconciler.start()
        kernel.run(until=10.0)
        reconciler.stop()
        assert attempts == [0.0, 1.0, 3.0]  # +1s, then +2s

    def test_closed_channel_triggers_rewatch_and_relist(self, kernel):
        channels = []
        seen = []

        def subscribe():
            channel = Channel(kernel)
            channels.append(channel)
            return channel

        reconciler = make_reconciler(kernel, lambda key: seen.append(key))
        reconciler.rewatch_delay = 0.5
        reconciler.watch_channel("src", subscribe=subscribe,
                                 keys_of=lambda event: [event],
                                 list_keys=lambda: ["relisted"])
        reconciler.start()
        kernel.run(until=0.1)
        channels[0].close()  # the serving node crashed
        kernel.run(until=1.0)
        reconciler.stop()
        assert len(channels) == 2
        assert reconciler.rewatches == 1
        # One relist at first subscribe, one after re-establishment.
        assert seen == ["relisted", "relisted"]

    def test_rewatch_relists_the_static_keys_of_a_listless_source(self, kernel):
        # A source with no listing of its own (the Guardian's etcd
        # watch): what changed while no watch stood is re-read through
        # the static keys at re-establishment, not a resync tick later.
        channels = []
        seen = []

        def subscribe():
            channel = Channel(kernel)
            channels.append(channel)
            return channel

        reconciler = make_reconciler(
            kernel, lambda key: seen.append((kernel.now, key)))
        reconciler.rewatch_delay = 0.5
        reconciler.add_static_key("status")
        reconciler.watch_channel("src", subscribe=subscribe,
                                 keys_of=lambda event: [event])
        reconciler.start()
        kernel.run(until=0.1)
        channels[0].close()
        kernel.run(until=5.0)
        reconciler.stop()
        # At start the pump's add coalesces with start()'s.
        assert seen == [(0.0, "status"), (0.6, "status")]

    def test_generator_reconcile_and_list_keys(self, kernel):
        seen = []

        def reconcile(key):
            yield kernel.sleep(0.1)
            seen.append((kernel.now, key))

        def list_keys():
            yield kernel.sleep(0.0)
            return ["g"]

        reconciler = make_reconciler(kernel, reconcile)
        reconciler.add_source(WatchSource("gen", list_keys=list_keys))
        reconciler.start()
        kernel.run(until=1.0)
        reconciler.stop()
        assert seen == [(0.1, "g")]

    def test_stop_kills_worker_and_closes_queue(self, kernel):
        reconciler = make_reconciler(kernel, lambda key: None,
                                     resync_interval=1.0)
        reconciler.add_static_key("x")
        reconciler.start()
        kernel.run(until=0.5)
        reconciler.stop()
        assert reconciler.queue.closed
        kernel.run(until=5.0)  # no residual activity
        assert reconciler.resyncs == 0
