"""What an RPC does, stage by stage, pinned by arrival times.

Characterisation tests: they pass on the generator ``Network._call``
they were written against and on the callback state machine that
replaced it, and they are what "the timeline did not move" means for
one call. The latency model is scripted — it hands out a fixed list in
draw order — so *which call drew which latency* shows up as when its
handler ran and when its caller resumed.
"""

import pytest

from repro.grpcnet import DeadlineExceeded, Network, Server, Unavailable
from repro.sim import Kernel, MetricsRegistry


class ScriptedLatency:
    """``sample()`` returns the next value of a fixed list."""

    def __init__(self, *values):
        self.values = values
        self.drawn = 0

    def sample(self, _rng):
        value = self.values[self.drawn]
        self.drawn += 1
        return value


@pytest.fixture
def kernel():
    return Kernel(seed=1)


def make_network(kernel, *latencies, metrics=None):
    return Network(kernel, metrics or MetricsRegistry(),
                   latency=ScriptedLatency(*latencies))


def start_server(kernel, network, address, **methods):
    server = Server(kernel, network, address)
    for name, handler in methods.items():
        server.add_method(name, handler)
    return server.start()


def call_outcome(kernel, network, log, *args, **kwargs):
    """Spawn a caller that logs ``(now, response-or-exception)``."""

    def caller():
        try:
            outcome = yield network.call(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 — the outcome is the datum
            outcome = exc
        log.append((kernel.now, outcome))

    return kernel.spawn(caller())


def counter_values(registry, name):
    return {labels: child.value
            for labels, child in registry.get(name).children()}


class TestDrawOrder:
    """The two hops that order the ``network`` RNG stream against
    other causal chains (DESIGN.md, "An RPC is one event")."""

    def test_nested_call_draws_before_the_response_leg(self, kernel):
        """A plain handler fires an RPC without waiting for it and
        returns: the nested call's request leg is drawn first, then
        the outer call's response leg."""
        network = make_network(kernel, 0.010, 0.100, 0.001, 0.001)
        ran = []

        def outer(_request):
            network.call("inner", "noop", None)
            return "outer-done"

        start_server(kernel, network, "outer", work=outer)
        start_server(kernel, network, "inner",
                     noop=lambda _r: ran.append(kernel.now))
        log = []
        call_outcome(kernel, network, log, "outer", "work", None)
        kernel.run()
        assert ran == [pytest.approx(0.010 + 0.100)]
        assert log == [(pytest.approx(0.010 + 0.001), "outer-done")]

    def test_response_leg_draws_before_a_reactors_request_leg(self, kernel):
        """A handler's write wakes a waiting process that at once
        issues its own RPC: the handler's response leg is drawn
        first, then the reactor's request leg."""
        network = make_network(kernel, 0.010, 0.001, 0.100, 0.001)
        written = kernel.event()
        ran = []

        def reactor():
            yield written
            yield network.call("other", "noop", None)

        start_server(kernel, network, "store",
                     write=lambda _r: written.succeed() and "written")
        start_server(kernel, network, "other",
                     noop=lambda _r: ran.append(kernel.now))
        kernel.spawn(reactor())
        log = []
        call_outcome(kernel, network, log, "store", "write", None)
        kernel.run()
        assert log == [(pytest.approx(0.010 + 0.001), "written")]
        assert ran == [pytest.approx(0.010 + 0.100)]

    def test_equal_latency_keeps_call_order(self, kernel):
        """Zero jitter, two concurrent calls to one endpoint: handlers
        run, and callers resume, in the order the calls were made."""
        network = make_network(kernel, 0.001, 0.001, 0.001, 0.001)
        served = []
        start_server(kernel, network, "svc",
                     tag=lambda request: served.append(request) or request)
        log = []
        call_outcome(kernel, network, log, "svc", "tag", "first")
        call_outcome(kernel, network, log, "svc", "tag", "second",
                     deadline=1.0)
        kernel.run()
        assert served == ["first", "second"]
        assert log == [(pytest.approx(0.002), "first"),
                       (pytest.approx(0.002), "second")]


class TestDeadlineAtEveryStage:
    T0 = 0.25
    DEADLINE = 0.5

    def run_call(self, kernel, network, method):
        log = []

        def later():
            yield kernel.sleep(self.T0)
            yield call_outcome(kernel, network, log, "svc", method, None,
                               deadline=self.DEADLINE)

        kernel.spawn(later())
        kernel.run()
        (when, outcome), = log
        assert isinstance(outcome, DeadlineExceeded)
        assert when == self.T0 + self.DEADLINE
        return when

    def test_during_the_request_leg(self, kernel):
        registry = MetricsRegistry()
        network = make_network(kernel, 1.0, 0.001, metrics=registry)
        server = start_server(kernel, network, "svc", echo=lambda r: r)
        self.run_call(kernel, network, "echo")
        assert network.latency.drawn == 1
        assert server.requests_served == 0  # never delivered
        assert counter_values(registry, "rpc_client_calls_total") == {
            ("echo", "DeadlineExceeded"): 1}

    def test_during_a_suspended_handler(self, kernel):
        network = make_network(kernel, 0.010, 0.001)
        finished = []

        def slow(_request):
            yield kernel.sleep(1.0)
            finished.append(kernel.now)

        server = start_server(kernel, network, "svc", slow=slow)
        waiting_on_orphan = []

        def probe():
            # Deadline passed, handler still asleep: only the server's
            # own bookkeeping waits on it, so the dead call is not pinned.
            yield kernel.sleep(self.T0 + self.DEADLINE + 0.1)
            (orphan,) = server._inflight
            waiting_on_orphan.extend(callback.__self__
                                     for callback in orphan._callbacks)

        kernel.spawn(probe())
        self.run_call(kernel, network, "slow")
        assert waiting_on_orphan == [server]
        # The orphaned handler ran on; its response was never sent.
        assert finished == [pytest.approx(self.T0 + 0.010 + 1.0)]
        assert server.requests_served == 1
        assert network.latency.drawn == 1

    def test_during_the_response_leg(self, kernel):
        registry = MetricsRegistry()
        network = make_network(kernel, 0.010, 1.0, metrics=registry)
        server = start_server(kernel, network, "svc", echo=lambda r: r)
        self.run_call(kernel, network, "echo")
        assert server.requests_served == 1
        assert network.latency.drawn == 2
        assert counter_values(registry, "rpc_client_calls_total") == {
            ("echo", "DeadlineExceeded"): 1}


class TestCallerKilledWhileWaiting:
    def test_call_completes_and_is_recorded_once(self, kernel):
        registry = MetricsRegistry()
        network = make_network(kernel, 0.010, 0.010, metrics=registry)
        server = start_server(kernel, network, "svc", echo=lambda r: r)
        resumed = []

        def waiter():
            resumed.append((yield network.call("svc", "echo", "x",
                                               deadline=1.0, caller="me")))

        caller = kernel.spawn(waiter())

        def killer():
            yield kernel.sleep(0.015)
            caller.kill("gone")

        kernel.spawn(killer())
        kernel.run()
        assert resumed == [] and caller.state == "failed"
        assert server.requests_served == 1
        assert counter_values(registry, "rpc_client_calls_total") == {
            ("echo", "ok"): 1}
        assert counter_values(registry, "rpc_endpoint_requests_total") == {
            ("svc", "echo", "ok"): 1}
        # Settled when the response landed, not when the caller died.
        assert counter_values(registry, "rpc_endpoint_latency_seconds_total") \
            == {("svc", "echo"): pytest.approx(0.020)}


class TestPartitions:
    def test_response_dropped_by_a_partition_raised_mid_handler(self, kernel):
        network = make_network(kernel, 0.010, 0.010)

        def slow(_request):
            yield kernel.sleep(1.0)
            return "done"

        server = start_server(kernel, network, "svc", slow=slow)

        def cut():
            yield kernel.sleep(0.5)
            network.partition("me", "svc")

        kernel.spawn(cut())
        log = []
        call_outcome(kernel, network, log, "svc", "slow", None, caller="me")
        kernel.run()
        (when, outcome), = log
        assert when == pytest.approx(1.020)
        assert isinstance(outcome, Unavailable)
        assert "dropped by partition" in str(outcome)
        assert server.requests_served == 1

    def test_oneway_blocks_the_request_direction(self, kernel):
        network = make_network(kernel, 0.010, 0.010)
        server = start_server(kernel, network, "svc", echo=lambda r: r)
        network.partition_oneway("me", "svc")
        log = []
        call_outcome(kernel, network, log, "svc", "echo", 1, caller="me")
        kernel.run()
        (when, outcome), = log
        assert when == pytest.approx(0.010)
        assert isinstance(outcome, Unavailable)
        assert "partitioned from" in str(outcome)
        assert server.requests_served == 0
        assert network.latency.drawn == 1

    def test_oneway_blocks_the_response_direction(self, kernel):
        network = make_network(kernel, 0.010, 0.010)
        server = start_server(kernel, network, "svc", echo=lambda r: r)
        network.partition_oneway("svc", "me")
        log = []
        call_outcome(kernel, network, log, "svc", "echo", 1, caller="me")
        kernel.run()
        (when, outcome), = log
        assert when == pytest.approx(0.020)
        assert isinstance(outcome, Unavailable)
        assert "dropped by partition" in str(outcome)
        assert server.requests_served == 1


class TestDegradedEndpoint:
    def test_extra_latency_delays_the_request_only(self, kernel):
        network = make_network(kernel, 0.010, 0.001)
        ran = []
        start_server(kernel, network, "svc",
                     echo=lambda r: ran.append(kernel.now) or r)
        network.degrade("svc", extra_latency=0.200)
        log = []
        call_outcome(kernel, network, log, "svc", "echo", "x")
        kernel.run()
        assert ran == [pytest.approx(0.210)]
        assert log == [(pytest.approx(0.211), "x")]

    def test_deadline_during_the_extra_latency(self, kernel):
        network = make_network(kernel, 0.010, 0.001)
        server = start_server(kernel, network, "svc", echo=lambda r: r)
        network.degrade("svc", extra_latency=0.200)
        log = []
        call_outcome(kernel, network, log, "svc", "echo", "x", deadline=0.1)
        kernel.run()
        (when, outcome), = log
        assert when == 0.1 and isinstance(outcome, DeadlineExceeded)
        assert server.requests_served == 0
        assert network.latency.drawn == 1

    def test_loss_fails_the_call_on_arrival(self, kernel):
        network = make_network(kernel, 0.010, 0.001)
        server = start_server(kernel, network, "svc", echo=lambda r: r)
        network.degrade("svc", loss=0.999999)
        log = []
        call_outcome(kernel, network, log, "svc", "echo", "x")
        kernel.run()
        (when, outcome), = log
        assert when == pytest.approx(0.010)
        assert isinstance(outcome, Unavailable)
        assert "degraded link" in str(outcome)
        assert server.requests_served == 0

    def test_duplicate_runs_the_handler_twice(self, kernel):
        registry = MetricsRegistry()
        network = make_network(kernel, 0.010, 0.001, metrics=registry)
        seen = []
        server = start_server(kernel, network, "svc",
                              echo=lambda r: seen.append(r) or r)
        network.degrade("svc", duplicate=1.0)
        log = []
        call_outcome(kernel, network, log, "svc", "echo", "x")
        kernel.run()
        assert seen == ["x", "x"]
        assert server.requests_served == 2
        assert counter_values(registry, "rpc_server_handled_total") == {
            ("svc",): 2}
        assert counter_values(registry, "rpc_client_calls_total") == {
            ("echo", "ok"): 1}
        assert log == [(pytest.approx(0.011), "x")]
        assert network.latency.drawn == 2


class TestDebugFreeze:
    def test_catches_a_suspending_handler_mutating_its_request(self, kernel):
        registry = MetricsRegistry()
        network = make_network(kernel, 0.010, 0.001, metrics=registry)
        network.debug_freeze = True

        def mutating(request):
            yield kernel.sleep(0.1)
            request["dirty"] = True
            return "ok"

        start_server(kernel, network, "svc", mutate=mutating)
        log = []
        call_outcome(kernel, network, log, "svc", "mutate", {"a": 1},
                     deadline=1.0)
        kernel.run()
        (when, outcome), = log
        assert when == pytest.approx(0.110)
        assert isinstance(outcome, AssertionError)
        assert "mutated its request" in str(outcome)
        assert counter_values(registry, "rpc_client_calls_total") == {
            ("mutate", "AssertionError"): 1}
        assert network.latency.drawn == 1  # no response leg
