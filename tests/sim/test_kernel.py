"""Unit tests for the simulation kernel, events and processes."""

import gc
import weakref

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    ChannelClosed,
    Channel,
    Interrupt,
    Kernel,
    ProcessKilled,
    SimError,
)


@pytest.fixture
def kernel():
    return Kernel(seed=42)


class TestClock:
    def test_starts_at_zero(self, kernel):
        assert kernel.now == 0.0

    def test_sleep_advances_clock(self, kernel):
        seen = []

        def proc():
            yield kernel.sleep(5.0)
            seen.append(kernel.now)

        kernel.spawn(proc())
        kernel.run()
        assert seen == [5.0]

    def test_run_until_advances_clock_even_when_idle(self, kernel):
        kernel.run(until=100.0)
        assert kernel.now == 100.0

    def test_run_until_does_not_execute_later_events(self, kernel):
        seen = []

        def proc():
            yield kernel.sleep(50.0)
            seen.append("late")

        kernel.spawn(proc())
        kernel.run(until=10.0)
        assert seen == []
        kernel.run(until=60.0)
        assert seen == ["late"]

    def test_run_until_past_raises(self, kernel):
        kernel.run(until=10.0)
        with pytest.raises(SimError):
            kernel.run(until=5.0)

    def test_negative_sleep_rejected(self, kernel):
        with pytest.raises(ValueError):
            kernel.sleep(-1.0)

    def test_fifo_order_for_simultaneous_events(self, kernel):
        order = []

        def proc(tag):
            yield kernel.sleep(1.0)
            order.append(tag)

        for tag in ("a", "b", "c"):
            kernel.spawn(proc(tag))
        kernel.run()
        assert order == ["a", "b", "c"]

    def test_bare_callbacks_are_one_heap_entry_each(self, kernel):
        """``call_soon`` / ``call_later``: no timer, no dispatch hop,
        FIFO among entries of one instant."""
        order = []
        kernel.call_later(2.0, lambda: order.append(("later", kernel.now)))
        kernel.call_soon(lambda: order.append(("soon", kernel.now)))
        kernel.call_later(0.0, lambda: order.append(("zero", kernel.now)))
        kernel.run()
        assert order == [("soon", 0.0), ("zero", 0.0), ("later", 2.0)]
        assert kernel.events_processed == 3
        with pytest.raises(ValueError):
            kernel.call_later(-1.0, lambda: None)


class TestProcesses:
    def test_return_value(self, kernel):
        def proc():
            yield kernel.sleep(1.0)
            return 99

        process = kernel.spawn(proc())
        assert kernel.run_until_complete(process) == 99

    def test_join_other_process(self, kernel):
        def child():
            yield kernel.sleep(3.0)
            return "done"

        def parent():
            result = yield kernel.spawn(child())
            return (kernel.now, result)

        process = kernel.spawn(parent())
        assert kernel.run_until_complete(process) == (3.0, "done")

    def test_exception_propagates_to_joiner(self, kernel):
        def child():
            yield kernel.sleep(1.0)
            raise ValueError("boom")

        def parent():
            yield kernel.spawn(child())

        process = kernel.spawn(parent())
        with pytest.raises(ValueError, match="boom"):
            kernel.run_until_complete(process)

    def test_kill_interrupts_sleep(self, kernel):
        def proc():
            yield kernel.sleep(100.0)

        process = kernel.spawn(proc())
        kernel.run(until=5.0)
        process.kill("test")
        kernel.run(until=6.0)
        assert process.triggered
        assert isinstance(process.exception, ProcessKilled)

    def test_kill_allows_cleanup(self, kernel):
        cleaned = []

        def proc():
            try:
                yield kernel.sleep(100.0)
            except ProcessKilled:
                cleaned.append(kernel.now)
                raise

        process = kernel.spawn(proc())
        kernel.run(until=7.0)
        process.kill()
        kernel.run(until=8.0)
        assert cleaned == [7.0]

    def test_kill_finished_process_is_noop(self, kernel):
        def proc():
            yield kernel.sleep(1.0)
            return "ok"

        process = kernel.spawn(proc())
        kernel.run()
        process.kill()
        kernel.run()
        assert process.ok and process.value == "ok"

    def test_interrupt_resumes_process(self, kernel):
        log = []

        def proc():
            try:
                yield kernel.sleep(100.0)
            except Interrupt as intr:
                log.append(intr.cause)
            yield kernel.sleep(1.0)
            return "survived"

        process = kernel.spawn(proc())
        kernel.run(until=2.0)
        process.interrupt("wake")
        result = kernel.run_until_complete(process)
        assert result == "survived"
        assert log == ["wake"]
        assert kernel.now == 3.0

    def test_spawn_requires_generator(self, kernel):
        def not_a_generator():
            return 1

        with pytest.raises(TypeError):
            kernel.spawn(not_a_generator)

    def test_yield_non_event_fails_process(self, kernel):
        def proc():
            yield 42

        process = kernel.spawn(proc())
        kernel.run()
        assert process.state == "failed"
        assert isinstance(process.exception, TypeError)

    def test_run_until_complete_deadlock_detection(self, kernel):
        def proc():
            yield kernel.event()  # never triggered

        process = kernel.spawn(proc())
        with pytest.raises(SimError, match="deadlock"):
            kernel.run_until_complete(process)


class TestFinishedProcessesAreNotRetained:
    """The kernel's heap is what is alive in the simulation: a process
    nobody references any more dies with its generator and its value,
    however long the kernel itself lives."""

    def test_finished_process_and_its_value_die(self, kernel):
        class Response:
            pass

        def proc():
            yield kernel.sleep(1.0)
            return Response()

        process = kernel.spawn(proc())
        value = kernel.run_until_complete(process)
        dead_process, dead_value = weakref.ref(process), weakref.ref(value)
        del process, value
        gc.collect()
        assert dead_process() is None
        assert dead_value() is None
        assert kernel.now == 1.0  # the kernel outlived both

    def test_heap_does_not_grow_with_finished_processes(self, kernel):
        def proc():
            yield kernel.sleep(0.001)
            return {"ok": True}

        def churn(count):
            for _ in range(count):
                kernel.spawn(proc())
            kernel.run()
            gc.collect()
            return len(gc.get_objects())

        before = churn(100)  # warm every lazy allocation first
        after = churn(10_000)
        assert after - before < 100


class TestEvents:
    def test_event_value_passed_to_waiter(self, kernel):
        event = kernel.event()

        def waiter():
            value = yield event
            return value

        def trigger():
            yield kernel.sleep(2.0)
            event.succeed("payload")

        process = kernel.spawn(waiter())
        kernel.spawn(trigger())
        assert kernel.run_until_complete(process) == "payload"

    def test_event_failure_thrown_into_waiter(self, kernel):
        event = kernel.event()

        def waiter():
            yield event

        process = kernel.spawn(waiter())
        event.fail(RuntimeError("bad"))
        with pytest.raises(RuntimeError, match="bad"):
            kernel.run_until_complete(process)

    def test_double_trigger_rejected(self, kernel):
        event = kernel.event()
        event.succeed(1)
        with pytest.raises(RuntimeError):
            event.succeed(2)

    def test_wait_on_already_triggered_event(self, kernel):
        event = kernel.event()
        event.succeed("early")

        def waiter():
            value = yield event
            return value

        process = kernel.spawn(waiter())
        assert kernel.run_until_complete(process) == "early"

    def test_any_of_returns_first(self, kernel):
        def waiter():
            winner, value = yield AnyOf(kernel, [kernel.sleep(5, "slow"), kernel.sleep(2, "fast")])
            return value

        process = kernel.spawn(waiter())
        assert kernel.run_until_complete(process) == "fast"
        assert kernel.now == 2.0

    def test_all_of_collects_values(self, kernel):
        def waiter():
            values = yield AllOf(kernel, [kernel.sleep(5, "a"), kernel.sleep(2, "b")])
            return values

        process = kernel.spawn(waiter())
        assert kernel.run_until_complete(process) == ["a", "b"]
        assert kernel.now == 5.0

    def test_all_of_empty_completes(self, kernel):
        def waiter():
            values = yield AllOf(kernel, [])
            return values

        process = kernel.spawn(waiter())
        assert kernel.run_until_complete(process) == []

    def test_any_of_empty_rejected(self, kernel):
        with pytest.raises(ValueError):
            AnyOf(kernel, [])


class TestRng:
    def test_streams_are_deterministic(self):
        first = Kernel(seed=7).rng("alpha").random()
        second = Kernel(seed=7).rng("alpha").random()
        assert first == second

    def test_streams_are_independent(self):
        kernel = Kernel(seed=7)
        a1 = kernel.rng("alpha").random()
        kernel2 = Kernel(seed=7)
        kernel2.rng("beta").random()  # draw from another stream first
        a2 = kernel2.rng("alpha").random()
        assert a1 == a2

    def test_different_seeds_differ(self):
        assert Kernel(seed=1).rng("x").random() != Kernel(seed=2).rng("x").random()


class TestChannel:
    def test_put_then_get(self, kernel):
        channel = Channel(kernel)
        channel.put("item")

        def consumer():
            value = yield channel.get()
            return value

        process = kernel.spawn(consumer())
        assert kernel.run_until_complete(process) == "item"

    def test_get_blocks_until_put(self, kernel):
        channel = Channel(kernel)

        def consumer():
            value = yield channel.get()
            return (kernel.now, value)

        def producer():
            yield kernel.sleep(4.0)
            channel.put("late")

        process = kernel.spawn(consumer())
        kernel.spawn(producer())
        assert kernel.run_until_complete(process) == (4.0, "late")

    def test_fifo_ordering(self, kernel):
        channel = Channel(kernel)
        for i in range(3):
            channel.put(i)

        def consumer():
            out = []
            for _ in range(3):
                out.append((yield channel.get()))
            return out

        process = kernel.spawn(consumer())
        assert kernel.run_until_complete(process) == [0, 1, 2]

    def test_close_fails_pending_getters(self, kernel):
        channel = Channel(kernel)

        def consumer():
            yield channel.get()

        process = kernel.spawn(consumer())
        kernel.run(until=1.0)
        channel.close()
        with pytest.raises(ChannelClosed):
            kernel.run_until_complete(process)

    def test_put_on_closed_channel_raises(self, kernel):
        channel = Channel(kernel)
        channel.close()
        with pytest.raises(ChannelClosed):
            channel.put(1)

    def test_get_nowait(self, kernel):
        channel = Channel(kernel)
        assert channel.get_nowait() is None
        channel.put("x")
        assert channel.get_nowait() == "x"


class TestEventEdgeCases:
    def test_any_of_failing_child_fails_composite(self, kernel):
        from repro.sim import AnyOf

        bad = kernel.event()

        def waiter():
            yield AnyOf(kernel, [kernel.sleep(10.0), bad])

        process = kernel.spawn(waiter())
        bad.fail(RuntimeError("child failed"))
        with pytest.raises(RuntimeError, match="child failed"):
            kernel.run_until_complete(process)

    def test_all_of_failing_child_fails_composite(self, kernel):
        from repro.sim import AllOf

        bad = kernel.event()

        def waiter():
            yield AllOf(kernel, [kernel.sleep(1.0), bad])

        process = kernel.spawn(waiter())
        bad.fail(ValueError("nope"))
        with pytest.raises(ValueError, match="nope"):
            kernel.run_until_complete(process)

    def test_remove_callback(self, kernel):
        event = kernel.event()
        calls = []
        callback = lambda ev: calls.append(ev)
        event.add_callback(callback)
        event.remove_callback(callback)
        event.succeed()
        kernel.run()
        assert calls == []

    def test_fail_requires_exception(self, kernel):
        with pytest.raises(TypeError):
            kernel.event().fail("not an exception")

    def test_step_returns_false_when_empty(self, kernel):
        assert kernel.step() is False

    def test_run_until_complete_respects_limit(self, kernel):
        def slow():
            yield kernel.sleep(100.0)

        process = kernel.spawn(slow())
        with pytest.raises(SimError, match="did not finish"):
            kernel.run_until_complete(process, limit=10.0)
