"""Admission control at the API tier (paper §III.c, multi-tenancy).

Three enforcement layers sit in front of job submission, all applied
before any cluster resources are touched:

1. **Rate limiting** — the existing per-tenant token bucket
   (:class:`~repro.core.auth.RateLimiter`), now instrumented: every
   request increments ``api_requests_total{tenant,method}`` and every
   throttle increments ``admission_rejected_total{tenant,reason="rate"}``.

2. **Concurrent-job quotas** — with ``tenant_quota_jobs > 0`` a tenant
   may hold at most that many non-terminal jobs. The authoritative
   count lives in MongoDB (indexed ``tenant`` query); short-lived
   in-memory *reservations* cover the window between admission and the
   durable insert so a burst of simultaneous submissions cannot slip
   past the quota between counts. Reservations are per-API-instance:
   with consistent-hash routing (``api_ring_routing``) a tenant's
   submissions land on one replica, making the local view effectively
   global; without it, transient over-admission is bounded by one
   in-flight submission per replica.

3. **Weighted fair queueing** — with ``admission_queue_limit > 0`` an
   over-quota submission waits (bounded by ``admission_max_wait``,
   which must stay under the client RPC deadline) instead of failing
   fast. A deficit-round-robin pump drains waiters as quota capacity
   frees, weighted by ``tenant_weights`` (default weight 1.0), so a
   heavy tenant queueing hundreds of submissions cannot starve a
   light tenant queueing one.

Digest neutrality: with the default config (quotas off) admission adds
*zero* kernel events — ``admit_submission`` returns without yielding
and no pump process ever starts — so default-config timelines are
bit-identical to the pre-admission platform. Metric increments and
event-recorder emissions are digest-neutral by construction.
"""

from collections import deque

from ..sim import AnyOf
from .errors import QuotaExceeded, RateLimited
from .states import TERMINAL_STATUSES

PUMP_INTERVAL = 0.1  # cadence of fair-queue grant rounds while any wait


class AdmissionController:
    """Per-API-instance admission: rate, quota, and fair queueing."""

    def __init__(self, api):
        platform = api.platform
        config = platform.config
        self.platform = platform
        self.kernel = platform.kernel
        self.api = api
        self.mongo = api.mongo
        self.quota = config.tenant_quota_jobs
        self.queue_limit = config.admission_queue_limit
        self.max_wait = config.admission_max_wait
        self.weights = dict(config.tenant_weights or {})
        metrics = platform.metrics
        self._m_requests = metrics.counter(
            "api_requests_total", ("tenant", "method"),
            help="API requests received, by tenant and method")
        self._m_rejected = metrics.counter(
            "admission_rejected_total", ("tenant", "reason"),
            help="submissions rejected at admission "
                 "(reason: rate|quota|queue_full|queue_timeout)")
        self._g_queue = metrics.gauge(
            "admission_queue_depth", ("tenant",),
            help="over-quota submissions waiting in the admission queue")
        self._reserved = {}   # tenant -> admitted-but-not-yet-inserted count
        self._queues = {}     # tenant -> deque[Event] of parked submissions
        self._deficit = {}    # tenant -> accumulated DRR credit
        self._pump = None     # lazily spawned, exits when queues drain

    # ------------------------------------------------------------------
    # layer 1: every API call
    # ------------------------------------------------------------------

    def check_call(self, tenant, method):
        """Synchronous per-request gate: count it, then rate-limit it."""
        self._m_requests.labels(tenant=tenant, method=method).inc()
        try:
            self.api.ratelimiter.check(tenant)
        except RateLimited:
            self._m_rejected.labels(tenant=tenant, reason="rate").inc()
            self.platform.events.emit_event(
                "Warning", "TenantThrottled", "Tenant", tenant,
                message=f"tenant {tenant} over its request rate limit")
            raise

    # ------------------------------------------------------------------
    # layers 2+3: submission quota with fair queueing
    # ------------------------------------------------------------------

    def admit_submission(self, tenant):
        """Admit one job submission or raise :class:`QuotaExceeded`.

        On success one reservation is held for the tenant; the caller
        MUST :meth:`settle` it once the job document is durable (or the
        submission failed), or the slot leaks until pod restart.
        """
        if self.quota <= 0:
            return  # quotas disabled: no yields, digest-identical
        while True:
            if (yield from self._try_reserve(tenant)):
                return
            if self.queue_limit <= 0:
                self._reject(tenant, "quota",
                             f"tenant {tenant} at its quota of "
                             f"{self.quota} concurrent jobs")
            queue = self._queues.setdefault(tenant, deque())
            if len(queue) >= self.queue_limit:
                self._reject(tenant, "queue_full",
                             f"tenant {tenant} admission queue full "
                             f"({self.queue_limit} waiting)")
            waiter = self.kernel.event(f"admission:{tenant}")
            queue.append(waiter)
            self._g_queue.labels(tenant=tenant).set(len(queue))
            self._ensure_pump()
            timer = self.kernel.sleep(self.max_wait)
            yield AnyOf(self.kernel, (waiter, timer))
            if waiter.triggered:
                # Granted — the pump reserved on our behalf (even if the
                # timer fired in the same instant, the slot is ours).
                if not timer.triggered:
                    timer.cancel()
                return
            # Timed out while still parked: withdraw and reject.
            try:
                queue.remove(waiter)
            except ValueError:
                pass
            waiter.cancel()
            self._g_queue.labels(tenant=tenant).set(len(queue))
            self._reject(tenant, "queue_timeout",
                         f"tenant {tenant} submission waited "
                         f"{self.max_wait}s without a quota slot")

    def settle(self, tenant):
        """Release one reservation (job durable, or submission failed)."""
        held = self._reserved.get(tenant, 0)
        if held <= 1:
            self._reserved.pop(tenant, None)
        else:
            self._reserved[tenant] = held - 1

    def queue_depth(self, tenant):
        return len(self._queues.get(tenant, ()))

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _try_reserve(self, tenant):
        """Count active jobs; reserve a slot if under quota.

        The reservation read-modify-write is synchronous after the
        count resumes, so concurrent submissions serialize correctly:
        whoever resumes first takes the slot, later ones see it held.
        """
        active = yield from self.mongo.count("jobs", {
            "tenant": tenant,
            "status": {"$nin": sorted(TERMINAL_STATUSES)},
        })
        held = self._reserved.get(tenant, 0)
        if active + held >= self.quota:
            return False
        self._reserved[tenant] = held + 1
        return True

    def _reject(self, tenant, reason, message):
        self._m_rejected.labels(tenant=tenant, reason=reason).inc()
        self.platform.events.emit_event(
            "Warning", "TenantThrottled", "Tenant", tenant, message=message)
        raise QuotaExceeded(message, reason=reason)

    def _ensure_pump(self):
        if self._pump is None:
            self._pump = self.kernel.spawn(
                self._pump_loop(), name=f"admission-pump:{self.api.address}")

    def _pump_loop(self):
        # Lives only while submissions are parked: spawned on first
        # enqueue, exits when every queue drains (the emptiness check
        # and the return are atomic — no yield between them — so a
        # racing enqueue either sees the live pump or respawns one).
        try:
            while True:
                yield self.kernel.sleep(PUMP_INTERVAL)
                yield from self._grant_round()
                if not any(self._queues.values()):
                    return
        finally:
            self._pump = None

    def _grant_round(self):
        """One deficit-round-robin pass over tenants with waiters.

        Each pass a waiting tenant earns credit equal to its weight;
        grants spend one credit each and are capped by the tenant's
        free quota, so capacity freed while several tenants queue is
        split by weight rather than won by whoever queues hardest.
        """
        waiting = sorted(t for t, q in self._queues.items() if q)
        for tenant in waiting:
            self._deficit[tenant] = (self._deficit.get(tenant, 0.0)
                                     + self.weights.get(tenant, 1.0))
        for tenant in waiting:
            queue = self._queues.get(tenant)
            if not queue:
                continue
            active = yield from self.mongo.count("jobs", {
                "tenant": tenant,
                "status": {"$nin": sorted(TERMINAL_STATUSES)},
            })
            free = self.quota - active - self._reserved.get(tenant, 0)
            grants = min(len(queue), max(0, free),
                         int(self._deficit.get(tenant, 0.0)))
            for _ in range(grants):
                waiter = queue.popleft()
                # Reserve on the waiter's behalf *at grant time* so two
                # granted waiters cannot double-spend one free slot.
                self._reserved[tenant] = self._reserved.get(tenant, 0) + 1
                self._deficit[tenant] -= 1.0
                waiter.succeed()
            if grants:
                self._g_queue.labels(tenant=tenant).set(len(queue))
            if not queue:
                # Idle tenants must not bank credit for later bursts.
                self._deficit.pop(tenant, None)
