"""Unit tests for authentication, rate limiting and metering."""

import pytest

from repro import DlaasPlatform
from repro.core import (
    AuthError,
    PlatformConfig,
    RateLimited,
    RateLimiter,
    TokenRegistry,
)
from repro.core.api import ApiService
from repro.sim import Kernel


class TestTokenRegistry:
    def test_create_and_authenticate(self):
        registry = TokenRegistry()
        token = registry.create_tenant("team-a")
        assert registry.authenticate(token) == "team-a"

    def test_same_tenant_same_token(self):
        registry = TokenRegistry()
        assert registry.create_tenant("t") == registry.create_tenant("t")

    def test_distinct_tenants_distinct_tokens(self):
        registry = TokenRegistry()
        assert registry.create_tenant("a") != registry.create_tenant("b")

    def test_invalid_token_rejected(self):
        registry = TokenRegistry()
        with pytest.raises(AuthError):
            registry.authenticate("forged-token")


class TestRateLimiter:
    def test_burst_allowed(self):
        kernel = Kernel()
        limiter = RateLimiter(kernel, rate=10.0, burst=5.0)
        for _ in range(5):
            limiter.check("t")
        with pytest.raises(RateLimited):
            limiter.check("t")

    def test_refill_over_time(self):
        kernel = Kernel()
        limiter = RateLimiter(kernel, rate=10.0, burst=5.0)
        for _ in range(5):
            limiter.check("t")
        kernel.run(until=1.0)  # 10 tokens refill, capped at burst
        for _ in range(5):
            limiter.check("t")

    def test_tenants_independent(self):
        kernel = Kernel()
        limiter = RateLimiter(kernel, rate=10.0, burst=1.0)
        limiter.check("a")
        limiter.check("b")  # b has its own bucket
        with pytest.raises(RateLimited):
            limiter.check("a")

    def test_invalid_parameters(self):
        kernel = Kernel()
        with pytest.raises(ValueError):
            RateLimiter(kernel, rate=0)
        with pytest.raises(ValueError):
            RateLimiter(kernel, rate=1, burst=0)


def make_api():
    """A live platform plus one extra API instance to drive directly."""
    config = PlatformConfig(gpu_nodes=1, gpus_per_node=2, management_nodes=1)
    platform = DlaasPlatform(seed=31, config=config)
    platform.start()
    return platform, ApiService(platform, "api:unit-test")


def call_gate(platform, api, tenant, method):
    """Pass one request for ``tenant`` through the API's gate."""
    request = {"token": platform.tokens.create_tenant(tenant)}
    return platform.run_process(api._authenticate(request, method),
                                limit=600)


class TestCallGate:
    def test_requests_counted_per_tenant_and_method(self):
        platform, api = make_api()
        call_gate(platform, api, "team-a", "submit")
        call_gate(platform, api, "team-a", "submit")
        call_gate(platform, api, "team-b", "status")
        counter = platform.metrics.get("api_requests_total")
        assert counter.labels(tenant="team-a", method="submit").value == 2
        assert counter.labels(tenant="team-b", method="status").value == 1

    def test_rate_rejection_instrumented(self, monkeypatch):
        monkeypatch.setattr("repro.core.api.API_RATE_LIMIT", 1.0)
        monkeypatch.setattr("repro.core.api.API_RATE_BURST", 2.0)
        platform, api = make_api()
        call_gate(platform, api, "greedy", "list_jobs")
        call_gate(platform, api, "greedy", "list_jobs")
        with pytest.raises(RateLimited):
            call_gate(platform, api, "greedy", "list_jobs")
        rejected = platform.metrics.get("admission_rejected_total")
        assert rejected.labels(tenant="greedy", reason="rate").value == 1
        assert platform.events.events(reason="TenantThrottled")
