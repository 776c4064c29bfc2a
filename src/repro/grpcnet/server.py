"""Simulated RPC server: named methods, run inline at request arrival,
and as kernel processes from the moment they suspend."""

import inspect
from types import GeneratorType

from ..sim.errors import ProcessKilled
from ..sim.events import PENDING, Event
from ..sim.process import step
from .errors import MethodNotFound, ServiceError
from .payload import deep_copy_payload


class Server:
    """An addressable RPC endpoint hosting named method handlers.

    Handlers may be plain callables (instantaneous in simulated time) or
    generator functions (which may sleep, call other services, etc.).
    Every handler starts where the request is dispatched. One that
    suspends becomes its own kernel process at that point, so a slow
    handler never blocks the server; one that finishes first takes no
    simulated time and costs no process.

    Stopping the server models a process crash: in-flight handlers are
    killed (callers see ``Unavailable``) and new calls are refused until
    :meth:`start` is called again.
    """

    def __init__(self, kernel, network, address, service_time=0.0,
                 copy_responses=False):
        self.kernel = kernel
        self.network = network
        self.address = address
        self.service_time = service_time
        # Single-serialization boundary: when True, every response is
        # deep-copied once here, and handlers may return references to
        # internal state (e.g. the docstore's copy-elided reads).
        self.copy_responses = copy_responses
        self.running = False
        self._methods = {}
        self._inflight = {}  # handler process -> None, in arrival order
        self.requests_served = 0

    def add_method(self, name, handler):
        self._methods[name] = handler
        return self

    def start(self):
        if self.running:
            return self
        self.running = True
        if self.network.lookup(self.address) is not self:
            self.network.register(self.address, self)
        return self

    def stop(self):
        """Crash/stop: kill in-flight handlers in arrival order, refuse
        new calls."""
        if not self.running:
            return self
        self.running = False
        self.network.unregister(self.address)
        inflight, self._inflight = self._inflight, {}
        for process in inflight:
            process.kill(f"server {self.address} stopped")
        return self

    def dispatch(self, method, request):
        """Run ``method`` for one request; returns the event of its
        completion. The handler runs here, inline: the request's
        arrival is an instant the call owns alone (DESIGN.md, "An RPC
        is one event"). One that finishes without suspending — a
        plain handler, a generator that never yields — comes back as
        an event settled already. Only one that suspends (or a server
        with a ``service_time``) gets a process, adopting the handler
        where it stopped; :meth:`stop` can kill it."""
        # Server-side delivery count: a duplicated message shows up here
        # twice while the caller's request counter moves once — the flow
        # anomaly the differential detector keys on.
        self.network.observe_dispatch(self.address)
        handler = self._methods.get(method)
        if handler is None:
            return Event(self.kernel).fail(
                MethodNotFound(f"{self.address} has no method {method!r}"))
        if not self.service_time:
            try:
                response = handler(request)
            except Exception as exc:
                error = ServiceError(method, exc)
                error.__cause__ = exc
                return Event(self.kernel).fail(error)
            if not isinstance(response, GeneratorType):
                return Event(self.kernel).succeed(self._respond(response))
            handler = response  # it can suspend
        kernel = self.kernel
        handled = step(kernel, self._serve(handler, method, request),
                       f"{self.address}/{method}" if kernel.debug else "serve")
        if handled.state is PENDING:
            self._inflight[handled] = None
            # The completion callback receives the process itself, so
            # a bound method needs no per-call closure.
            handled.add_callback(self._forget)
        return handled

    def _forget(self, process):
        self._inflight.pop(process, None)

    def _serve(self, handler, method, request):
        """Process body: ``handler`` is a callable, or the generator a
        plain handler already returned."""
        if self.service_time:
            yield self.kernel.sleep(self.service_time)
        try:
            response = handler if inspect.isgenerator(handler) \
                else handler(request)
            if inspect.isgenerator(response):
                response = yield from response
        except ProcessKilled:
            # Server crash mid-handler; the caller must see Unavailable,
            # not a remote application error.
            raise
        except Exception as exc:
            raise ServiceError(method, exc) from exc
        return self._respond(response)

    def _respond(self, response):
        self.requests_served += 1
        if self.copy_responses:
            response = deep_copy_payload(response)
        return response
