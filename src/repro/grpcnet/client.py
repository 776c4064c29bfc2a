"""Client stubs with retries and deadlines, plus a load balancer.

The DLaaS API instances register into a Kubernetes service; clients of
the service see one virtual name with round-robin load balancing and
fail-over (paper §III.c). :class:`LoadBalancer` models that; a
:class:`Client` resolves its target through one (or calls a fixed
address directly).
"""

from ..sim.tracing import inject_context
from .errors import DeadlineExceeded, Unavailable
from .hashring import ConsistentHashRing


class LoadBalancer:
    """Round-robin resolver over a mutable endpoint set.

    With ``ring=True`` the balancer also maintains a
    :class:`~repro.grpcnet.hashring.ConsistentHashRing` over its
    endpoints; keyed picks (``pick_order(key=...)``) then return the
    ring order for the key — owner first, successors after, so a
    down owner fails over to a *stable* successor instead of a
    rotating one. Un-keyed picks stay round-robin either way, which
    keeps every existing call path bit-identical.
    """

    def __init__(self, name, ring=False):
        self.name = name
        self._endpoints = []
        self._cursor = 0
        self._ring = ConsistentHashRing() if ring else None

    def add(self, address):
        if address not in self._endpoints:
            self._endpoints.append(address)
            if self._ring is not None:
                self._ring.add(address)

    def remove(self, address):
        try:
            self._endpoints.remove(address)
        except ValueError:
            pass
        if self._ring is not None:
            self._ring.remove(address)

    @property
    def endpoints(self):
        return tuple(self._endpoints)

    def pick_order(self, key=None):
        """Endpoints to try for one call.

        Returning the full candidate list (not a single endpoint) lets
        the client fail over to the next instance when one is down.
        Without a key (or without a ring) the list is the round-robin
        rotation; with both, it is the consistent-hash ring order so
        the same key always lands on the same live replica.
        """
        if not self._endpoints:
            return []
        if key is not None and self._ring is not None and len(self._ring):
            return self._ring.ordered(key)
        start = self._cursor % len(self._endpoints)
        self._cursor += 1
        return self._endpoints[start:] + self._endpoints[:start]


class Client:
    """Call helper with retry/backoff/fail-over policy.

    ``target`` is either an address string or a :class:`LoadBalancer`.
    ``call`` is a generator — use ``response = yield from client.call(...)``
    inside a simulation process.
    """

    def __init__(self, kernel, network, target, caller="client",
                 retries=3, retry_backoff=0.05, deadline=None,
                 route_key=None):
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.kernel = kernel
        self.network = network
        self.target = target
        self.caller = caller
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.deadline = deadline
        # Affinity key for ring-mode balancers (e.g. the tenant name):
        # all of this client's calls stick to the key's ring owner.
        self.route_key = route_key

    def _candidates(self):
        if isinstance(self.target, LoadBalancer):
            return self.target.pick_order(key=self.route_key)
        return [self.target]

    def call(self, method, request=None, deadline=None, ctx=None):
        """Invoke ``method``, retrying transient failures with backoff.

        Retries cover ``Unavailable`` and ``DeadlineExceeded`` — the
        failure modes a crash or fail-over produces. Remote application
        errors (``ServiceError``) are not retried: the platform treats
        those as genuine responses.

        ``ctx`` is an optional :class:`~repro.sim.tracing.SpanContext`;
        it rides in the request metadata (dict requests only) so the
        remote handler can parent its span on the caller's.
        """
        deadline = self.deadline if deadline is None else deadline
        request = inject_context(request, ctx)
        last_error = None
        for attempt in range(self.retries + 1):
            if attempt:
                yield self.kernel.sleep(self.retry_backoff * (2 ** (attempt - 1)))
            for address in self._candidates():
                try:
                    response = yield self.network.call(
                        address, method, request, deadline=deadline, caller=self.caller
                    )
                    return response
                except (Unavailable, DeadlineExceeded) as exc:
                    last_error = exc
            if not self._candidates():
                last_error = Unavailable(f"{self.target!r} has no endpoints")
        raise last_error
