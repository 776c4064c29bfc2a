"""Simulated RPC server: named methods, run inline when they cannot
suspend and as kernel processes when they can."""

import inspect

from ..sim.errors import ProcessKilled
from ..sim.events import Event
from .errors import MethodNotFound, ServiceError
from .payload import deep_copy_payload


class Server:
    """An addressable RPC endpoint hosting named method handlers.

    Handlers may be plain callables (instantaneous in simulated time) or
    generator functions (which may sleep, call other services, etc.).
    A request whose handler can suspend runs as its own kernel process,
    so a slow handler never blocks the server; a plain one takes no
    simulated time and is run where it is dispatched.

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
        self._inflight = set()
        self.requests_served = 0

    def add_method(self, name, handler):
        # Whether the handler is a generator function is a property of
        # the handler, not of the request: resolved here, once.
        self._methods[name] = (handler, inspect.isgeneratorfunction(handler))
        return self

    def add_service(self, obj, prefix=""):
        """Register every public method of ``obj`` ending in ``_rpc``.

        The RPC method name is the Python name minus the ``_rpc``
        suffix, optionally prefixed (``prefix="Trainer."``).
        """
        for attr in dir(obj):
            if attr.startswith("_") or not attr.endswith("_rpc"):
                continue
            self.add_method(prefix + attr[: -len("_rpc")], getattr(obj, attr))
        return self

    def start(self):
        if self.running:
            return self
        self.running = True
        if self.network.lookup(self.address) is not self:
            self.network.register(self.address, self)
        return self

    def stop(self):
        """Crash/stop: kill in-flight handlers, refuse new calls."""
        if not self.running:
            return self
        self.running = False
        self.network.unregister(self.address)
        inflight, self._inflight = self._inflight, set()
        for process in inflight:
            process.kill(f"server {self.address} stopped")
        return self

    def dispatch(self, method, request):
        """Run ``method`` for one request; returns the event of its
        completion. A plain handler runs here, inline, and the event
        comes back already settled; only a handler that can suspend
        gets a process, which :meth:`stop` can kill."""
        # Server-side delivery count: a duplicated message shows up here
        # twice while the caller's request counter moves once — the flow
        # anomaly the differential detector keys on.
        self.network.observe_dispatch(self.address)
        registered = self._methods.get(method)
        if registered is None:
            return Event(self.kernel).fail(
                MethodNotFound(f"{self.address} has no method {method!r}"))
        handler, is_generator_function = registered
        if not is_generator_function and not self.service_time:
            try:
                response = handler(request)
            except Exception as exc:
                error = ServiceError(method, exc)
                error.__cause__ = exc
                return Event(self.kernel).fail(error)
            if not inspect.isgenerator(response):
                return Event(self.kernel).succeed(self._respond(response))
            handler = response  # it can suspend after all
        process = self.kernel.spawn(
            self._serve(handler, method, request),
            name=f"{self.address}/{method}" if self.kernel.debug else "serve",
        )
        self._inflight.add(process)
        # The completion callback receives the process itself, so the
        # bound discard needs no per-call closure.
        process.add_callback(self._inflight.discard)
        return process

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
