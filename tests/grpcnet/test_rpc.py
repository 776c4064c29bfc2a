"""Unit tests for the simulated RPC fabric."""

import pytest

from repro.grpcnet import (
    Client,
    DeadlineExceeded,
    LatencyModel,
    LoadBalancer,
    MethodNotFound,
    Network,
    Server,
    ServiceError,
    Unavailable,
)
from repro.sim import Kernel, MetricsRegistry


@pytest.fixture
def kernel():
    return Kernel(seed=1)


@pytest.fixture
def network(kernel):
    return Network(kernel, MetricsRegistry(), latency=LatencyModel(base=0.001, jitter=0.0))


def make_echo_server(kernel, network, address="svc"):
    server = Server(kernel, network, address)
    server.add_method("echo", lambda request: {"echo": request})
    server.start()
    return server


def run_call(kernel, generator):
    return kernel.run_until_complete(kernel.spawn(generator))


class TestBasicCalls:
    def test_plain_handler(self, kernel, network):
        make_echo_server(kernel, network)

        def caller():
            response = yield network.call("svc", "echo", "hi")
            return response

        assert run_call(kernel, caller()) == {"echo": "hi"}

    def test_latency_applied_both_ways(self, kernel, network):
        make_echo_server(kernel, network)

        def caller():
            yield network.call("svc", "echo", None)
            return kernel.now

        assert run_call(kernel, caller()) == pytest.approx(0.002)

    def test_generator_handler_takes_time(self, kernel, network):
        server = Server(kernel, network, "slow").start()

        def handler(_request):
            yield kernel.sleep(1.0)
            return "done"

        server.add_method("work", handler)

        def caller():
            response = yield network.call("slow", "work", None)
            return (kernel.now, response)

        now, response = run_call(kernel, caller())
        assert response == "done"
        assert now == pytest.approx(1.002)

    def test_method_not_found(self, kernel, network):
        make_echo_server(kernel, network)

        def caller():
            yield network.call("svc", "nope", None)

        with pytest.raises(MethodNotFound):
            run_call(kernel, caller())

    def test_handler_exception_wrapped(self, kernel, network):
        server = Server(kernel, network, "svc").start()

        def bad(_request):
            raise ValueError("handler blew up")

        server.add_method("bad", bad)

        def caller():
            yield network.call("svc", "bad", None)

        with pytest.raises(ServiceError) as excinfo:
            run_call(kernel, caller())
        assert isinstance(excinfo.value.cause, ValueError)

    def test_unknown_address_unavailable(self, kernel, network):
        def caller():
            yield network.call("ghost", "echo", None)

        with pytest.raises(Unavailable):
            run_call(kernel, caller())


class TestCrashSemantics:
    def test_stopped_server_is_unavailable(self, kernel, network):
        server = make_echo_server(kernel, network)
        server.stop()

        def caller():
            yield network.call("svc", "echo", None)

        with pytest.raises(Unavailable):
            run_call(kernel, caller())

    def test_crash_mid_call_surfaces_unavailable(self, kernel, network):
        server = Server(kernel, network, "svc").start()

        def handler(_request):
            yield kernel.sleep(10.0)
            return "never"

        server.add_method("slow", handler)

        def crasher():
            yield kernel.sleep(1.0)
            server.stop()

        kernel.spawn(crasher())

        def caller():
            yield network.call("svc", "slow", None)

        with pytest.raises(Unavailable, match="crashed"):
            run_call(kernel, caller())

    def test_restart_after_crash(self, kernel, network):
        server = make_echo_server(kernel, network)
        server.stop()
        server.start()

        def caller():
            response = yield network.call("svc", "echo", "back")
            return response

        assert run_call(kernel, caller()) == {"echo": "back"}


class TestDeadlines:
    def test_deadline_exceeded(self, kernel, network):
        server = Server(kernel, network, "svc").start()

        def handler(_request):
            yield kernel.sleep(10.0)
            return "late"

        server.add_method("slow", handler)

        def caller():
            yield network.call("svc", "slow", None, deadline=0.5)

        with pytest.raises(DeadlineExceeded):
            run_call(kernel, caller())
        assert kernel.now == pytest.approx(0.5)

    def test_deadline_not_hit(self, kernel, network):
        make_echo_server(kernel, network)

        def caller():
            response = yield network.call("svc", "echo", 1, deadline=5.0)
            return response

        assert run_call(kernel, caller()) == {"echo": 1}

    def test_deadline_is_counted_as_deadline_exceeded(self, kernel):
        """A locally expired call is labelled ``DeadlineExceeded``."""
        registry = MetricsRegistry()
        network = Network(kernel, registry, latency=LatencyModel(0.001, 0.0))
        server = Server(kernel, network, "svc").start()

        def handler(_request):
            yield kernel.sleep(10.0)

        server.add_method("slow", handler)
        network.call("svc", "slow", None, deadline=0.5)
        kernel.run()

        def codes(name):
            return {labels[-1]: child.value
                    for labels, child in registry.get(name).children()}

        assert codes("rpc_client_calls_total") == {"DeadlineExceeded": 1}
        assert codes("rpc_endpoint_requests_total") == {"DeadlineExceeded": 1}


class TestPartitions:
    def test_partition_blocks_call(self, kernel, network):
        make_echo_server(kernel, network)
        network.partition("me", "svc")

        def caller():
            yield network.call("svc", "echo", None, caller="me")

        with pytest.raises(Unavailable):
            run_call(kernel, caller())

    def test_heal_restores_traffic(self, kernel, network):
        make_echo_server(kernel, network)
        network.partition("me", "svc")
        network.heal("me", "svc")

        def caller():
            response = yield network.call("svc", "echo", "x", caller="me")
            return response

        assert run_call(kernel, caller()) == {"echo": "x"}


class TestClientRetries:
    def test_retry_until_server_returns(self, kernel, network):
        server = make_echo_server(kernel, network)
        server.stop()

        def restarter():
            yield kernel.sleep(0.06)
            server.start()

        kernel.spawn(restarter())
        client = Client(kernel, network, "svc", retries=5, retry_backoff=0.05)

        def caller():
            response = yield from client.call("echo", "retry")
            return response

        assert run_call(kernel, caller()) == {"echo": "retry"}

    def test_retries_exhausted(self, kernel, network):
        client = Client(kernel, network, "ghost", retries=2, retry_backoff=0.01)

        def caller():
            yield from client.call("echo", None)

        with pytest.raises(Unavailable):
            run_call(kernel, caller())

    def test_service_error_not_retried(self, kernel, network):
        server = Server(kernel, network, "svc").start()
        attempts = []

        def flaky(_request):
            attempts.append(1)
            raise ValueError("app error")

        server.add_method("flaky", flaky)
        client = Client(kernel, network, "svc", retries=5, retry_backoff=0.01)

        def caller():
            yield from client.call("flaky", None)

        with pytest.raises(ServiceError):
            run_call(kernel, caller())
        assert len(attempts) == 1


def balancer_of(endpoints):
    balancer = LoadBalancer("api")
    for address in endpoints:
        balancer.add(address)
    return balancer


class TestLoadBalancer:
    def test_round_robin_rotation(self):
        balancer = balancer_of(["a", "b", "c"])
        assert balancer.pick_order() == ["a", "b", "c"]
        assert balancer.pick_order() == ["b", "c", "a"]
        assert balancer.pick_order() == ["c", "a", "b"]

    def test_failover_to_live_instance(self, kernel, network):
        make_echo_server(kernel, network, "api-0")
        dead = Server(kernel, network, "api-1")  # never started
        assert not dead.running
        balancer = balancer_of(["api-1", "api-0"])
        client = Client(kernel, network, balancer, retries=0)

        def caller():
            response = yield from client.call("echo", "ok")
            return response

        assert run_call(kernel, caller()) == {"echo": "ok"}

    def test_no_endpoints_unavailable(self, kernel, network):
        client = Client(kernel, network, LoadBalancer("empty"), retries=0)

        def caller():
            yield from client.call("echo", None)

        with pytest.raises(Unavailable):
            run_call(kernel, caller())

    def test_spread_across_instances(self, kernel, network):
        servers = [make_echo_server(kernel, network, f"api-{i}") for i in range(3)]
        balancer = balancer_of([s.address for s in servers])
        client = Client(kernel, network, balancer, retries=0)

        def caller():
            for _ in range(9):
                yield from client.call("echo", None)

        run_call(kernel, caller())
        assert [s.requests_served for s in servers] == [3, 3, 3]


class TestLossRate:
    def test_lossy_network_eventually_fails_calls(self, kernel):
        network = Network(kernel, MetricsRegistry(), latency=LatencyModel(0.001, 0.0))
        make_echo_server(kernel, network)
        network.degrade("svc", loss=0.5)
        failures = 0

        def caller():
            nonlocal failures
            for _ in range(50):
                try:
                    yield network.call("svc", "echo", None)
                except Unavailable:
                    failures += 1

        run_call(kernel, caller())
        assert 5 < failures < 45  # ~50% loss, generous bounds

    def test_invalid_loss_rate(self, kernel):
        network = Network(kernel, MetricsRegistry())
        with pytest.raises(ValueError):
            network.degrade("svc", loss=1.5)


class TestServiceTimeAndPrefix:
    def test_service_time_adds_to_latency(self, kernel, network):
        server = Server(kernel, network, "svc", service_time=0.5)
        server.add_method("echo", lambda request: request)
        server.start()

        def caller():
            yield network.call("svc", "echo", None)
            return kernel.now

        assert run_call(kernel, caller()) == pytest.approx(0.502)


class TestSingleSerializationBoundary:
    def test_copy_responses_isolates_server_state(self, kernel, network):
        """With copy_responses=True the handler may return a live
        reference; the boundary copies it once, so the caller's
        mutations never reach the server's state."""
        state = {"status": "RUNNING", "history": ["QUEUED"]}
        server = Server(kernel, network, "svc", copy_responses=True)
        server.add_method("get", lambda _request: state)
        server.start()

        def caller():
            response = yield network.call("svc", "get", None)
            return response

        response = run_call(kernel, caller())
        assert response == state
        response["status"] = "MUTATED"
        response["history"].append("MUTATED")
        assert state == {"status": "RUNNING", "history": ["QUEUED"]}

    def test_freeze_check_catches_request_mutation(self, kernel):
        """debug_freeze snapshots each request and asserts the handler
        did not mutate it in place."""
        network = Network(kernel, MetricsRegistry(), latency=LatencyModel(base=0.001, jitter=0.0))
        network.debug_freeze = True
        server = Server(kernel, network, "svc").start()

        def mutating(request):
            request["dirty"] = True
            return "ok"

        server.add_method("mutate", mutating)
        server.add_method("clean", lambda request: dict(request))

        def call(method):
            def caller():
                return (yield network.call("svc", method, {"a": 1}))
            return run_call(kernel, caller())

        assert call("clean") == {"a": 1}
        with pytest.raises(AssertionError, match="mutated its request"):
            call("mutate")
