"""Multi-tenant authentication, metering and rate limiting (§III.c).

"The DLaaS API microservice handles all the incoming API requests
including load balancing, metering, and access management."
"""

import itertools

from .errors import AuthError, RateLimited

_token_counter = itertools.count(1)


class TokenRegistry:
    """Tenant -> API token mapping (a stand-in for IAM)."""

    def __init__(self):
        self._by_token = {}
        self._by_tenant = {}

    def create_tenant(self, tenant):
        if tenant in self._by_tenant:
            return self._by_tenant[tenant]
        token = f"tok-{next(_token_counter):06d}-{tenant}"
        self._by_token[token] = tenant
        self._by_tenant[tenant] = token
        return token

    def authenticate(self, token):
        tenant = self._by_token.get(token)
        if tenant is None:
            raise AuthError("invalid API token")
        return tenant


class RateLimiter:
    """Per-tenant token bucket (requests per second with burst)."""

    def __init__(self, kernel, rate=50.0, burst=100.0):
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.kernel = kernel
        self.rate = rate
        self.burst = burst
        self._buckets = {}  # tenant -> (tokens, last_refill_time)

    def check(self, tenant):
        """Consume one request token or raise :class:`RateLimited`."""
        now = self.kernel.now
        tokens, last = self._buckets.get(tenant, (self.burst, now))
        tokens = min(self.burst, tokens + (now - last) * self.rate)
        if tokens < 1.0:
            self._buckets[tenant] = (tokens, now)
            raise RateLimited(f"tenant {tenant!r} exceeded {self.rate} req/s")
        self._buckets[tenant] = (tokens - 1.0, now)


class Metering:
    """Durable per-tenant usage accounting, stored in MongoDB."""

    def __init__(self, mongo):
        self.mongo = mongo

    def record_api_call(self, tenant, method):
        yield from self.mongo.update_one(
            "metering", {"tenant": tenant},
            {"$inc": {f"api_calls.{method}": 1, "api_calls_total": 1}},
            upsert=True,
        )

    def record_submission(self, tenant, gpus):
        yield from self.mongo.update_one(
            "metering", {"tenant": tenant},
            {"$inc": {"jobs_submitted": 1, "gpus_requested": gpus}},
            upsert=True,
        )

    def report(self, tenant):
        doc = yield from self.mongo.find_one("metering", {"tenant": tenant})
        return doc or {"tenant": tenant, "api_calls_total": 0}
