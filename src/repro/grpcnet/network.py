"""The simulated message fabric connecting microservices.

Models what DLaaS gets from GRPC over the datacenter network: named
endpoints, per-message latency with jitter, optional message loss, and
network partitions for dependability experiments. Services register a
:class:`~repro.grpcnet.server.Server` under an address; clients invoke
``network.call(address, method, request)``.
"""

from ..sim.errors import ProcessKilled, SimError
from ..sim.events import FAILED, PENDING, SUCCEEDED, Event
from .errors import DeadlineExceeded, MethodNotFound, RpcError, Unavailable
from .payload import deep_copy_payload


class LatencyModel:
    """Per-hop latency: base plus uniform jitter, seconds."""

    def __init__(self, base=0.0005, jitter=0.0005):
        if base < 0 or jitter < 0:
            raise ValueError("latency parameters must be non-negative")
        self.base = base
        self.jitter = jitter

    def sample(self, rng):
        return self.base + rng.random() * self.jitter


class EndpointImpairment:
    """Gray-fault knobs for a single endpoint (a degraded link/NIC).

    All-zero means healthy; the fabric only consults an instance for
    endpoints present in ``Network._impaired``, so healthy traffic
    never pays for the feature (no extra RNG draws, no extra sleeps —
    the simulated timeline is bit-identical with nothing degraded).
    """

    __slots__ = ("extra_latency", "loss", "duplicate")

    def __init__(self, extra_latency=0.0, loss=0.0, duplicate=0.0):
        if extra_latency < 0:
            raise ValueError(f"extra_latency must be >= 0: {extra_latency}")
        if not 0.0 <= loss < 1.0:
            raise ValueError(f"loss must be in [0, 1): {loss}")
        if not 0.0 <= duplicate <= 1.0:
            raise ValueError(f"duplicate must be in [0, 1]: {duplicate}")
        self.extra_latency = extra_latency
        self.loss = loss
        self.duplicate = duplicate


class _Call(Event):
    """One in-process RPC: the event the caller yields, and the state
    machine that carries the message there and back.

    ``_send`` -> ``_arrive`` (-> ``_admit``) -> ``_served`` -> ``_deliver``
    are kernel callbacks, not a process: the two latency legs are bare
    heap entries, the handler's completion costs one hop, and whichever
    stage settles the call resumes its waiters in the same kernel entry.
    The deadline is a real :class:`~repro.sim.kernel.Timer` (cancelled
    on settle, so the dead-entry counters stay true); it can win at any
    stage, after which the later stages find the call settled and
    return — an orphaned handler runs on. Which hops may go and which
    order the ``network`` RNG stream: DESIGN.md, "An RPC is one event".
    """

    __slots__ = ("_network", "_address", "_method", "_request", "_caller",
                 "_started", "_timer", "_snapshot", "_handled")

    def __init__(self, network, address, method, request, caller, deadline):
        kernel = network.kernel
        Event.__init__(self, kernel, name=f"rpc:{caller}->{address}/{method}"
                       if kernel.debug else "rpc")
        self._network = network
        self._address = address
        self._method = method
        self._request = request
        self._caller = caller
        self._started = kernel.now
        self._snapshot = self._handled = None
        kernel.call_soon(self._send)
        if deadline is None:
            self._timer = None
        else:
            self._timer = kernel.sleep(deadline, deadline)
            self._timer.add_callback(self._expire)

    def _send(self):
        network = self._network
        network.calls_total += 1
        network.kernel.call_later(network.latency.sample(network._rng),
                                  self._arrive)

    def _arrive(self):
        if self.state is not PENDING:
            return
        network, address = self._network, self._address
        if network.loss_rate and network._rng.random() < network.loss_rate:
            return self._settle(Unavailable(f"message to {address} lost"))
        # Gray impairments: only calls to a degraded endpoint pay for
        # them, so healthy traffic costs no extra RNG draws or heap
        # entries and the no-fault timeline stays bit-identical.
        impair = network._impaired.get(address) if network._impaired else None
        if impair is not None and impair.extra_latency:
            network.kernel.call_later(impair.extra_latency,
                                      lambda: self._admit(impair))
        else:
            self._admit(impair)

    def _admit(self, impair):
        if self.state is not PENDING:
            return
        network, address, request = self._network, self._address, self._request
        if impair is not None and impair.loss \
                and network._gray_rng.random() < impair.loss:
            return self._settle(Unavailable(
                f"message to {address} lost (degraded link)"))
        server = network._servers.get(address)
        if server is None or not server.running:
            return self._settle(Unavailable(f"no live endpoint at {address}"))
        if network._blocked(self._caller, address):
            return self._settle(Unavailable(
                f"{self._caller} partitioned from {address}"))
        if network.debug_freeze:
            self._snapshot = deep_copy_payload(request)
        if (impair is not None and impair.duplicate
                and network._gray_rng.random() < impair.duplicate):
            # Duplicate delivery: the server handles the message a
            # second time; the extra response is discarded in flight.
            # Only the server-side dispatch counter sees it.
            server.dispatch(self._method, request)
        # One hop after the handler settles, even when it already has:
        # whatever it scheduled draws from the RNG before the response.
        handled = self._handled = server.dispatch(self._method, request)
        if handled.state is PENDING:
            handled.add_callback(self._served)
        else:
            network.kernel.call_soon(self._served)

    def _served(self, _handled=None):
        if self.state is not PENDING:
            return
        network, handled = self._network, self._handled
        if handled.state is FAILED:
            error = handled.exception
            if isinstance(error, ProcessKilled):
                error = Unavailable(
                    f"{self._address} crashed while serving {self._method}")
            return self._settle(error)
        if self._snapshot is not None and self._request != self._snapshot:
            return self._settle(AssertionError(
                f"handler {self._address}/{self._method} mutated its request "
                "in place (violates the single-serialization contract)"))
        network.kernel.call_later(network.latency.sample(network._rng),
                                  self._deliver)

    def _deliver(self):
        if self.state is not PENDING:
            return
        if self._network._blocked(self._address, self._caller):
            return self._settle(Unavailable(
                f"response from {self._address} dropped by partition"))
        self._settle(None, self._handled.value)

    def _expire(self, timer):
        if self.state is PENDING:
            self._settle(DeadlineExceeded(
                f"{self._address}/{self._method} after {timer.value}s"))

    def _settle(self, error, value=None):
        network = self._network
        if self._timer is not None:
            self._timer.cancel()  # lazy heap deletion; no-op once fired
        if error is None:
            code = "ok"
            self.state = SUCCEEDED
            self.value = value
        else:
            network.calls_failed += 1
            code = type(error).__name__
            self.state = FAILED
            self.exception = error
        network._observe_call(self._method, code, self._started, self._address)
        if network.tracer is not None:
            network.tracer.emit("network", "rpc", caller=self._caller,
                                address=self._address, method=self._method)
        if self._handled is not None and self._handled.state is PENDING:
            # A deadline beat a suspended handler: it runs on, but must
            # not keep this call alive until it finishes.
            self._handled.remove_callback(self._served)
        self._request = self._snapshot = self._handled = None
        callbacks, self._callbacks = self._callbacks, ()
        for callback in callbacks:
            callback(self)


class _RemoteCall(Event):
    """An RPC whose server lives on another shard.

    The request leaves as an ``rpc-req`` boundary message (payload
    serialized once at the port); this event settles when the matching
    ``rpc-res`` arrives at a later window — or when the local deadline
    timer wins, in which case a late response is dropped and counted.
    """

    __slots__ = ("_network", "_corr", "_address", "_method", "_deadline",
                 "_timer", "_started")

    def __init__(self, network, corr, address, method, deadline):
        Event.__init__(self, network.kernel)
        self._network = network
        self._corr = corr
        self._address = address
        self._method = method
        self._deadline = deadline
        self._started = network.kernel.now
        if deadline is not None:
            self._timer = network.kernel.sleep(deadline)
            self._timer.add_callback(self._on_timer)
        else:
            self._timer = None

    def _on_timer(self, _timer):
        if self.state is not PENDING:
            return
        self._network._abandon_remote(self._corr)
        self._settle_metrics("DeadlineExceeded")
        self.fail(DeadlineExceeded(
            f"{self._address}/{self._method} after {self._deadline}s "
            "(cross-shard)"))

    def complete(self, ok, value, error):
        if self.state is not PENDING:
            return
        if self._timer is not None:
            self._timer.cancel()
        if ok:
            self._settle_metrics("ok")
            self.succeed(value)
        else:
            exc = _decode_error(error, self._method)
            self._network.calls_failed += 1
            self._settle_metrics(type(exc).__name__)
            self.fail(exc)

    def _settle_metrics(self, code):
        self._network._observe_call(self._method, code, self._started,
                                    self._address)


def _encode_error(exc):
    """Picklable form of a server-side failure: (class name, message)."""
    return (type(exc).__name__, str(exc))


def _decode_error(spec, method):
    name, message = spec
    for cls in (Unavailable, DeadlineExceeded, MethodNotFound):
        if cls.__name__ == name:
            return cls(message)
    # Handler application errors arrive as the ServiceError the server
    # wrapped them in; anything unrecognized degrades to the base class
    # with its origin preserved in the message.
    return RpcError(f"{method} failed on remote shard: {name}: {message}")


class Network:
    """Registry of endpoints plus the latency/partition/loss model."""

    def __init__(self, kernel, latency=None, loss_rate=0.0, tracer=None,
                 metrics=None, debug_freeze=False):
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1): {loss_rate}")
        self.kernel = kernel
        self.latency = latency or LatencyModel()
        self.loss_rate = loss_rate
        self.tracer = tracer
        # Debug mode for single-serialization RPC: payloads
        # travel by reference, which is only sound if no handler mutates
        # a request in place. When enabled, every request is snapshotted
        # at send time and verified unchanged after the handler ran.
        self.debug_freeze = debug_freeze
        self._servers = {}
        self._partitions = set()
        # Gray faults: (src, dst) directions blocked one-way (a count
        # per direction so overlapping injections stack and revert
        # independently), and per-endpoint impairments (added latency /
        # loss / duplication). Impairments are kept as a *stack* of
        # layers per endpoint; ``_impaired`` holds the composed hot-path
        # view consulted on every call. The impairment RNG is a
        # dedicated stream created lazily on the first degrade() so
        # healthy runs draw nothing from it.
        self._oneway = {}
        self._impairment_layers = {}
        self._impaired = {}
        self._gray_rng = None
        self._rng = kernel.rng("network")
        self.calls_total = 0
        self.calls_failed = 0
        # Cross-shard routing (repro.sim.shard): addresses owned by
        # other shards, and the in-flight correlation table of calls
        # awaiting an rpc-res boundary message.
        self._port = None
        self._remotes = {}
        self._pending_remote = {}
        self._remote_corr = 0
        self.remote_calls_total = 0
        self.remote_late_responses = 0
        if metrics is not None:
            self._m_calls = metrics.counter(
                "rpc_client_calls_total", ("method", "code"),
                help="RPC invocations by method and outcome code")
            self._m_duration = metrics.histogram(
                "rpc_client_duration_seconds", ("method",),
                help="RPC wall time from initiation to response")
            # Per-endpoint families feeding the differential detector
            # (repro.monitoring.differential): plain counters — a
            # windowed mean needs only a count and a duration sum, at a
            # fraction of a histogram's scrape cost per endpoint.
            self._m_endpoint_calls = metrics.counter(
                "rpc_endpoint_requests_total", ("endpoint", "method", "code"),
                help="RPC invocations by target endpoint and outcome")
            self._m_endpoint_latency = metrics.counter(
                "rpc_endpoint_latency_seconds_total", ("endpoint", "method"),
                help="Summed RPC wall time by target endpoint")
            self._m_handled = metrics.counter(
                "rpc_server_handled_total", ("endpoint",),
                help="Handler dispatches at each endpoint (counts "
                     "duplicate deliveries the caller never sees)")
        else:
            self._m_calls = self._m_duration = None
            self._m_endpoint_calls = self._m_endpoint_latency = None
            self._m_handled = None
        # labels() resolved once per (method, code) / method — the
        # children are stable, and the per-RPC lookup cost is measurable.
        self._call_children = {}
        self._duration_children = {}
        self._endpoint_children = {}
        self._endpoint_latency_children = {}
        self._handled_children = {}

    # ------------------------------------------------------------------
    # Endpoint registry
    # ------------------------------------------------------------------

    def register(self, address, server):
        if address in self._servers:
            raise ValueError(f"address already registered: {address}")
        if address in self._remotes:
            raise ValueError(f"address is owned by shard "
                             f"{self._remotes[address]}: {address}")
        self._servers[address] = server

    def unregister(self, address):
        """Drop the endpoint and prune its per-endpoint metric
        children, bounding label cardinality: without pruning a
        long-running platform churning pods accumulates one child per
        address forever, every one walked by every scrape. A restarted
        endpoint re-registers and its children recreate at zero — a
        counter reset, which the windowed consumers
        (:func:`repro.sim.timeseries.counter_increase`) tolerate."""
        self._servers.pop(address, None)
        if self._m_endpoint_calls is None:
            return
        for key in [k for k in self._endpoint_children if k[0] == address]:
            del self._endpoint_children[key]
            self._m_endpoint_calls.remove(endpoint=key[0], method=key[1],
                                          code=key[2])
        for key in [k for k in self._endpoint_latency_children
                    if k[0] == address]:
            del self._endpoint_latency_children[key]
            self._m_endpoint_latency.remove(endpoint=key[0], method=key[1])
        if self._handled_children.pop(address, None) is not None:
            self._m_handled.remove(endpoint=address)

    def lookup(self, address):
        return self._servers.get(address)

    def addresses(self):
        return sorted(self._servers)

    # ------------------------------------------------------------------
    # Cross-shard boundary (repro.sim.shard)
    # ------------------------------------------------------------------

    def bind_shard(self, port):
        """Attach this fabric to a shard boundary port.

        Cross-shard sends become ``rpc-req`` boundary messages (payload
        serialized exactly once, at the port); this network serves the
        requests of other shards and routes their responses back.
        """
        if self._port is not None:
            raise SimError("network already bound to a shard port")
        self._port = port
        port.on("rpc-req", self._on_remote_request)
        port.on("rpc-res", self._on_remote_response)
        return self

    def add_remote(self, address, shard_id):
        """Declare ``address`` as served by another shard."""
        if self._port is None:
            raise SimError("bind_shard() before add_remote()")
        if address in self._servers:
            raise ValueError(f"address already registered locally: {address}")
        if shard_id == self._port.shard_id:
            raise ValueError(f"remote address {address} maps to own shard")
        self._remotes[address] = shard_id

    def _remote_call(self, address, method, request, deadline, caller):
        self.calls_total += 1
        self.remote_calls_total += 1
        self._remote_corr += 1
        corr = self._remote_corr
        event = _RemoteCall(self, corr, address, method, deadline)
        self._pending_remote[corr] = event
        self._port.send(self._remotes[address], "rpc-req",
                        (corr, address, method, request, caller))
        return event

    def _abandon_remote(self, corr):
        self._pending_remote.pop(corr, None)

    def _on_remote_request(self, src, payload):
        corr, address, method, request, caller = payload
        self.kernel.spawn(
            self._serve_remote(src, corr, address, method, request, caller),
            name=f"shard-rpc:{address}/{method}" if self.kernel.debug
            else "shard-rpc",
        )

    def _serve_remote(self, src, corr, address, method, request, caller):
        try:
            server = self._servers.get(address)
            if server is None or not server.running:
                raise Unavailable(f"no live endpoint at {address} "
                                  f"(shard {self._port.shard_id})")
            if self._blocked(caller, address):
                raise Unavailable(f"{caller} partitioned from {address}")
            try:
                response = yield server.dispatch(method, request)
            except ProcessKilled:
                raise Unavailable(
                    f"{address} crashed while serving {method}") from None
            self._port.send(src, "rpc-res", (corr, True, response, None))
        except Exception as exc:  # noqa: BLE001 — every failure must travel back
            self._port.send(src, "rpc-res",
                            (corr, False, None, _encode_error(exc)))
        if self.tracer is not None:
            self.tracer.emit("network", "shard-rpc", src=src, address=address,
                             method=method)

    def _on_remote_response(self, _src, payload):
        corr, ok, value, error = payload
        event = self._pending_remote.pop(corr, None)
        if event is None:
            # The caller's deadline already won the race; the protocol
            # still delivered the bytes, so count the waste.
            self.remote_late_responses += 1
            return
        event.complete(ok, value, error)

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------

    def partition(self, a, b):
        """Symmetrically block traffic between hosts ``a`` and ``b``."""
        self._partitions.add(frozenset((a, b)))

    def heal(self, a, b):
        self._partitions.discard(frozenset((a, b)))

    def heal_all(self):
        self._partitions.clear()
        self._oneway.clear()

    def is_partitioned(self, a, b):
        return frozenset((a, b)) in self._partitions

    def partition_oneway(self, src, dst):
        """Block messages from ``src`` to ``dst`` only (asymmetric
        partition): ``src``'s requests to ``dst`` vanish, and so do
        ``dst``'s *responses* back to ``src`` — but ``dst`` can still
        initiate calls to ``src``. The classic gray failure: both ends
        look alive to a symmetric health check.

        Calls stack: two overlapping injections of the same direction
        need two ``heal_oneway`` calls (or one ``heal_all``) before
        traffic flows again."""
        self._oneway[(src, dst)] = self._oneway.get((src, dst), 0) + 1

    def heal_oneway(self, src, dst):
        count = self._oneway.get((src, dst))
        if count is None:
            return
        if count <= 1:
            del self._oneway[(src, dst)]
        else:
            self._oneway[(src, dst)] = count - 1

    def _blocked(self, src, dst):
        """Is the ``src -> dst`` direction unreachable?"""
        return (frozenset((src, dst)) in self._partitions
                or ((src, dst) in self._oneway if self._oneway else False))

    # ------------------------------------------------------------------
    # Endpoint impairments (gray faults)
    # ------------------------------------------------------------------

    def degrade(self, address, extra_latency=0.0, loss=0.0, duplicate=0.0):
        """Impair the endpoint at ``address``: every message to it pays
        ``extra_latency`` seconds (a slow node/NIC), is lost with
        probability ``loss``, and is delivered twice with probability
        ``duplicate`` (the server runs the handler again; the second
        response is discarded in flight). The server itself stays
        registered and serving — health probes keep passing.

        Each call pushes one impairment *layer*; overlapping
        injections compose (latencies add, loss/duplication combine as
        independent events) and revert independently. Returns the
        layer — pass it to :meth:`restore` to remove exactly it."""
        layer = EndpointImpairment(extra_latency, loss, duplicate)
        if (loss or duplicate) and self._gray_rng is None:
            self._gray_rng = self.kernel.rng("grayfaults")
        self._impairment_layers.setdefault(address, []).append(layer)
        self._recompose(address)
        return layer

    def restore(self, address, layer=None):
        """Remove one impairment ``layer`` from ``address`` (or every
        layer when ``layer`` is None). Tolerant of a layer already
        removed, so revert paths can run in any order."""
        layers = self._impairment_layers.get(address)
        if layers is None:
            return
        if layer is None:
            layers.clear()
        elif layer in layers:
            layers.remove(layer)
        self._recompose(address)

    def _recompose(self, address):
        """Rebuild the composed hot-path impairment from the stack."""
        layers = self._impairment_layers.get(address)
        if not layers:
            self._impairment_layers.pop(address, None)
            self._impaired.pop(address, None)
            return
        keep = 1.0
        arrive_once = 1.0
        extra = 0.0
        for layer in layers:
            extra += layer.extra_latency
            keep *= 1.0 - layer.loss
            arrive_once *= 1.0 - layer.duplicate
        self._impaired[address] = EndpointImpairment(
            extra, 1.0 - keep, 1.0 - arrive_once)

    def impairment(self, address):
        return self._impaired.get(address)

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------

    def call(self, address, method, request, deadline=None, caller="client"):
        """Invoke ``method`` on the server at ``address``.

        Returns an :class:`~repro.sim.events.Event` — never a process:
        there is nothing to kill, a caller that stops waiting simply
        stops. Yield it to get the response (or the failure).
        ``deadline`` is in simulated seconds, measured from call
        initiation. Addresses owned by another shard route over the
        boundary port instead (the caller yields the same way; only the
        latency floor differs).
        """
        if self._remotes and address in self._remotes:
            return self._remote_call(address, method, request, deadline,
                                     caller)
        return _Call(self, address, method, request, caller, deadline)

    def _observe_call(self, method, code, started, address=None):
        """Record one finished call (local or cross-shard) into the
        cached per-(method, code) and per-endpoint metric children."""
        if self._m_calls is None:
            return
        counter = self._call_children.get((method, code))
        if counter is None:
            counter = self._call_children[(method, code)] = \
                self._m_calls.labels(method=method, code=code)
        counter.inc()
        histogram = self._duration_children.get(method)
        if histogram is None:
            histogram = self._duration_children[method] = \
                self._m_duration.labels(method=method)
        histogram.observe(self.kernel.now - started)
        if address is None:
            return
        key = (address, method, code)
        endpoint_counter = self._endpoint_children.get(key)
        if endpoint_counter is None:
            endpoint_counter = self._endpoint_children[key] = \
                self._m_endpoint_calls.labels(endpoint=address, method=method,
                                              code=code)
        endpoint_counter.inc()
        latency_counter = self._endpoint_latency_children.get(key[:2])
        if latency_counter is None:
            latency_counter = self._endpoint_latency_children[key[:2]] = \
                self._m_endpoint_latency.labels(endpoint=address,
                                                method=method)
        latency_counter.inc(self.kernel.now - started)

    def observe_dispatch(self, address):
        """Server-side tally of one handler dispatch at ``address``."""
        if self._m_handled is None:
            return
        counter = self._handled_children.get(address)
        if counter is None:
            counter = self._handled_children[address] = \
                self._m_handled.labels(endpoint=address)
        counter.inc()
