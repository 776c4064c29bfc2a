"""``Server.dispatch`` steps every handler at arrival, and reads as if it
spawned one.

The server runs a handler where the request is dispatched, and only a
handler that suspends gets a process, which adopts it at that point
(``repro.sim.process`` module docstring). ``SpawningServer`` below is
the dispatch it replaced — a plain handler inline, every generator as
a process that starts one hop later — and serves only as the oracle
here. Hypothesis generates requests whose handlers return, raise
before or after their first yield, sleep, schedule callbacks, yield a
settled event or a non-event, return a generator from a plain
function, and are killed mid-suspension by ``Server.stop``, on servers
with and without a ``service_time``. Both servers must give the same
handler effects in the same order at the same instants, the same
results and errors, and the same ``requests_served``.

A request arrives at an instant it owns: the network's arrivals come
out of a continuous latency draw (DESIGN.md, "An RPC is one event").
Here arrival ``k`` is at ``k + k/1024`` and every sleep is a multiple
of 1/4, so no arrival shares an instant with a timer or another
arrival; all of it is exact in binary.
"""

import inspect

from hypothesis import given, settings, strategies as st

from repro.grpcnet import LatencyModel, MethodNotFound, Network, Server, \
    ServiceError
from repro.sim import Kernel, MetricsRegistry
from repro.sim.events import Event


class SpawningServer(Server):
    """The oracle: every generator handler starts as a process."""

    def dispatch(self, method, request):
        self.network.observe_dispatch(self.address)
        handler = self._methods.get(method)
        if handler is None:
            return Event(self.kernel).fail(
                MethodNotFound(f"{self.address} has no method {method!r}"))
        if not inspect.isgeneratorfunction(handler) and not self.service_time:
            try:
                response = handler(request)
            except Exception as exc:
                error = ServiceError(method, exc)
                error.__cause__ = exc
                return Event(self.kernel).fail(error)
            if not inspect.isgenerator(response):
                return Event(self.kernel).succeed(self._respond(response))
            handler = response
        process = self.kernel.spawn(self._serve(handler, method, request),
                                    name="serve")
        self._inflight[process] = None
        process.add_callback(self._forget)
        return process


# ----------------------------------------------------------------------
# Programs
# ----------------------------------------------------------------------

steps = st.lists(st.one_of(
    st.tuples(st.just("sleep"), st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.5])),
    st.tuples(st.just("soon")),
    st.tuples(st.just("settled")),
    st.tuples(st.just("raise")),
    st.tuples(st.just("non-event")),
), max_size=4)

requests = st.lists(st.one_of(
    st.tuples(st.just("plain"), st.just(())),
    st.tuples(st.just("plain-raise"), st.just(())),
    st.tuples(st.just("generator"), steps),
    st.tuples(st.just("plain-returns-generator"), steps),
    st.tuples(st.just("missing"), st.just(())),
), min_size=1, max_size=8)

# Arrival indices after which the server crashes and restarts: at
# ``k + 1/2 + k/1024``, between arrivals and never on one.
stops = st.lists(st.integers(0, 7), max_size=3, unique=True)


class World:
    """One server of ``server_class`` and the log its handlers write."""

    def __init__(self, server_class, service_time):
        self.kernel = kernel = Kernel(seed=1)
        network = Network(kernel, MetricsRegistry(), latency=LatencyModel(base=0.001,
                                                       jitter=0.0))
        self.server = server_class(kernel, network, "svc",
                                   service_time=service_time).start()
        self.log = []

    def note(self, *entry):
        self.log.append((*entry, self.kernel.now))

    def body(self, rid, steps):
        kernel = self.kernel
        self.note(rid, "body")
        for index, step in enumerate(steps):
            kind = step[0]
            if kind == "sleep":
                yield kernel.sleep(step[1])
            elif kind == "soon":
                kernel.call_soon(lambda index=index: self.note(rid, "soon",
                                                               index))
            elif kind == "settled":
                yield kernel.event().succeed(index)
            elif kind == "raise":
                raise ValueError(f"{rid} raised at {index}")
            elif kind == "non-event":
                yield index
            self.note(rid, index)
        return f"r{rid}"

    def handler(self, rid, kind, steps):
        if kind == "plain":
            def plain(request):
                self.note(rid, "plain", request)
                return f"r{rid}"
            return plain
        if kind == "plain-raise":
            def raising(_request):
                self.note(rid, "plain-raise")
                raise KeyError(rid)
            return raising
        if kind == "generator":
            def generator(_request):
                return (yield from self.body(rid, steps))
            return generator

        def returns_generator(_request):
            self.note(rid, "returns-generator")
            return self.body(rid, steps)
        return returns_generator

    def arrive(self, rid, kind, steps):
        method = "nowhere" if kind == "missing" else f"m{rid}"
        if kind != "missing":
            self.server.add_method(method, self.handler(rid, kind, steps))
        self.note(rid, "arrive")
        handled = self.server.dispatch(method, rid)
        handled.add_callback(lambda event: self.note(rid, *outcome(event)))

    def crash(self):
        self.note("stop")
        self.server.stop()
        self.server.start()

    def run(self, program, crashes):
        kernel = self.kernel
        for rid, (kind, steps) in enumerate(program):
            kernel.call_later(rid + rid / 1024,
                              lambda rid=rid, kind=kind, steps=steps:
                              self.arrive(rid, kind, steps))
        for index in crashes:
            kernel.call_later(index + 0.5 + index / 1024, self.crash)
        kernel.run()
        return {"log": self.log,
                "requests_served": self.server.requests_served,
                "inflight": len(self.server._inflight)}


def outcome(event):
    if event.ok:
        return ("ok", event.value)
    error = event.exception
    cause = getattr(error, "cause", None)
    return ("failed", type(error).__name__, str(error),
            None if cause is None else type(cause).__name__)


@settings(max_examples=300, deadline=None)
@given(requests, stops, st.sampled_from([0.0, 0.25]))
def test_inline_dispatch_reads_as_the_spawning_one(program, crashes,
                                                   service_time):
    oracle = World(SpawningServer, service_time).run(program, crashes)
    inline = World(Server, service_time).run(program, crashes)
    assert inline == oracle


def test_a_handler_that_finishes_first_costs_no_process():
    world = World(Server, 0.0)
    world.server.add_method("gen", world.handler(0, "generator",
                                                 [("soon",)]))
    handled = world.server.dispatch("gen", 0)
    assert handled.ok and handled.value == "r0"
    assert not world.server._inflight
    assert world.server.requests_served == 1
