"""Event-budget ratchet: what one RPC costs the kernel, counted.

``kernel.events_processed`` is the number of heap entries popped. On an
otherwise idle kernel one call consumes a fixed number of them; the
counts below are exact and involve no clock. A deadline'd call to a
plain handler cost ten before the callback state machine (DESIGN.md,
"An RPC is one event"); this file is what keeps the hops from creeping
back.
"""

import pytest

from repro.grpcnet import (
    LatencyModel,
    MethodNotFound,
    Network,
    Server,
    ServiceError,
    Unavailable,
)
from repro.sim import Kernel, MetricsRegistry

DEADLINE = 5.0


@pytest.fixture
def kernel():
    return Kernel(seed=1)


@pytest.fixture
def network(kernel):
    network = Network(kernel, MetricsRegistry(), latency=LatencyModel(base=0.001, jitter=0.001))
    server = Server(kernel, network, "svc")
    server.add_method("echo", lambda request: request)

    def generator_echo(request):
        return request
        yield  # a generator function that never suspends

    def generator_sleep(request):
        yield kernel.sleep(0.5)
        return request

    def boom(_request):
        raise ValueError("boom")

    server.add_method("generator_echo", generator_echo)
    server.add_method("generator_sleep", generator_sleep)
    server.add_method("boom", boom)
    server.start()
    return network


def events_for(kernel, network, *args, **kwargs):
    """Heap entries one fire-and-forget call consumes, dead deadline
    entry included; returns ``(events, settled call)``."""
    before = kernel.events_processed
    call = network.call(*args, **kwargs)
    kernel.run()
    assert call.triggered
    return kernel.events_processed - before, call


class TestSuccessBudget:
    def test_deadline_call_to_a_plain_handler(self, kernel, network):
        events, call = events_for(kernel, network, "svc", "echo", "x",
                                  deadline=DEADLINE)
        assert call.value == "x"
        assert events <= 5
        # The call is its own deadline entry: settling first leaves it
        # queued and dead, counted as a cancelled timer — and what it
        # still holds of the request once settled is nothing.
        assert kernel.timers_cancelled == kernel.dead_entries_skipped == 1
        assert kernel.dead_entries_pending == 0
        assert call._request is None and call._handled is None

    def test_without_a_deadline(self, kernel, network):
        events, call = events_for(kernel, network, "svc", "echo", "x")
        assert call.value == "x"
        assert events <= 4
        assert kernel.timers_cancelled == 0

    def test_generator_handler_that_never_suspends(self, kernel, network):
        """It runs to completion at arrival, as a plain handler does:
        no process, no start hop."""
        events, call = events_for(kernel, network, "svc", "generator_echo",
                                  "x", deadline=DEADLINE)
        assert call.value == "x"
        assert events == 5
        assert kernel.dispatches_inlined == 0

    def test_generator_handler_that_suspends(self, kernel, network):
        """``_send``, ``_arrive`` (the handler runs to its sleep and a
        process adopts it there), the sleep's timer (which wakes the
        process inline: nothing else is due), the process's completion
        hop (``_served``), ``_deliver``, the dead deadline."""
        events, call = events_for(kernel, network, "svc", "generator_sleep",
                                  "x", deadline=DEADLINE)
        assert call.value == "x"
        assert events == 6
        assert kernel.dispatches_inlined == 1

    def test_a_waiting_caller_adds_only_its_own_start(self, kernel, network):
        """The waiter is resumed inside the delivery entry: a process
        that makes one call costs the call plus its own start hop."""
        before = kernel.events_processed

        def caller():
            return (yield network.call("svc", "echo", "x", deadline=DEADLINE))

        process = kernel.spawn(caller())
        kernel.run()
        assert process.value == "x"
        assert kernel.events_processed - before <= 5 + 1


class TestFailureBudget:
    """No failure path costs more than success."""

    @pytest.mark.parametrize("deadline, budget", [(DEADLINE, 5), (None, 4)])
    def test_failures(self, kernel, network, deadline, budget):
        network.partition("cut-off", "svc")
        cases = [
            (("nowhere", "echo", "x"), {}, Unavailable),
            (("svc", "echo", "x"), {"caller": "cut-off"}, Unavailable),
            (("svc", "missing", "x"), {}, MethodNotFound),
            (("svc", "boom", "x"), {}, ServiceError),
        ]
        for args, kwargs, expected in cases:
            events, call = events_for(kernel, network, *args,
                                      deadline=deadline, **kwargs)
            assert isinstance(call.exception, expected), args
            assert events <= budget, (args, events)
