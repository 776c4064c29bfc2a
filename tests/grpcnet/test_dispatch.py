"""``Server.dispatch``: plain handlers run inline, suspendable ones as
tracked processes."""

import pytest

from repro.grpcnet import (
    LatencyModel,
    MethodNotFound,
    Network,
    Server,
    ServiceError,
)
from repro.sim import Kernel, Process


@pytest.fixture
def kernel():
    return Kernel(seed=1)


@pytest.fixture
def network(kernel):
    return Network(kernel, latency=LatencyModel(base=0.001, jitter=0.0))


class TestInlinePlainHandler:
    def test_settled_before_dispatch_returns(self, kernel, network):
        server = Server(kernel, network, "svc").start()
        server.add_method("echo", lambda request: {"echo": request})
        before = kernel.events_processed
        done = server.dispatch("echo", "hi")
        assert not isinstance(done, Process)
        assert done.ok and done.value == {"echo": "hi"}
        assert server.requests_served == 1
        assert not server._inflight
        kernel.run()
        assert kernel.events_processed == before  # nothing was scheduled

    def test_copy_responses_copies_once(self, kernel, network):
        state = {"history": ["QUEUED"]}
        server = Server(kernel, network, "svc", copy_responses=True).start()
        server.add_method("get", lambda _request: state)
        response = server.dispatch("get", None).value
        assert response == state and response is not state
        assert response["history"] is not state["history"]
        plain = Server(kernel, network, "plain").start()
        plain.add_method("get", lambda _request: state)
        assert plain.dispatch("get", None).value is state

    def test_exception_becomes_service_error_with_cause(self, kernel, network):
        server = Server(kernel, network, "svc").start()
        boom = ValueError("boom")

        def broken(_request):
            raise boom

        server.add_method("broken", broken)
        done = server.dispatch("broken", None)
        assert done.state == "failed"
        assert isinstance(done.exception, ServiceError)
        assert done.exception.cause is boom
        assert done.exception.__cause__ is boom
        assert server.requests_served == 0

    def test_unknown_method(self, kernel, network):
        server = Server(kernel, network, "svc").start()
        done = server.dispatch("nope", None)
        assert isinstance(done.exception, MethodNotFound)
        assert not server._inflight

    def test_a_waiter_on_the_settled_event_still_wakes(self, kernel, network):
        """What ``Network._serve_remote`` relies on across shards."""
        server = Server(kernel, network, "svc").start()
        server.add_method("echo", lambda request: request)

        def waiter():
            return (yield server.dispatch("echo", "late"))

        assert kernel.run_until_complete(kernel.spawn(waiter())) == "late"


class TestSuspendableHandlers:
    def test_generator_function_is_a_tracked_process(self, kernel, network):
        server = Server(kernel, network, "svc").start()

        def slow(request):
            yield kernel.sleep(1.0)
            return request

        server.add_method("slow", slow)
        process = server.dispatch("slow", "x")
        assert isinstance(process, Process)
        assert server._inflight == {process}
        kernel.run()
        assert process.value == "x" and not server._inflight
        assert server.requests_served == 1

    def test_plain_handler_returning_a_generator(self, kernel, network):
        """Still a process, still killed by ``stop()``."""
        server = Server(kernel, network, "svc").start()
        finished = []

        def body(request):
            yield kernel.sleep(1.0)
            finished.append(request)
            return request

        server.add_method("wrapped", lambda request: body(request))
        first = server.dispatch("wrapped", "a")
        assert isinstance(first, Process) and server._inflight == {first}
        kernel.run()
        assert first.value == "a" and finished == ["a"]

        second = server.dispatch("wrapped", "b")
        kernel.run(until=kernel.now + 0.5)
        server.stop()
        kernel.run()
        assert second.state == "failed" and finished == ["a"]
        assert not server._inflight
        assert server.requests_served == 1

    def test_service_time_makes_a_plain_handler_a_process(self, kernel,
                                                         network):
        server = Server(kernel, network, "svc", service_time=0.5).start()
        server.add_method("echo", lambda request: request)
        process = server.dispatch("echo", "x")
        assert isinstance(process, Process) and process.alive
        kernel.run()
        assert process.value == "x" and kernel.now == pytest.approx(0.5)
