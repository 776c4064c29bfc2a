"""Unit tests for the differential (peer-divergence) detector."""

import pytest

from repro.monitoring import DifferentialDetector, robust_score, role_of
from repro.sim.timeseries import TimeSeriesStore


def series_value(out, endpoint, signal):
    for labels, value in out.items():
        d = dict(labels)
        if d["component"] == endpoint and d["signal"] == signal:
            return value
    return None


def feed(store, endpoint, method, calls, mean_latency, errors=0, handled=None,
         start=0.0, end=10.0, code="Unavailable"):
    """Two cumulative counter samples bracketing the window: ``calls``
    requests at ``mean_latency`` each, ``errors`` of them failing with
    ``code``."""
    store.add("rpc_endpoint_requests_total",
              {"endpoint": endpoint, "method": method, "code": "ok"},
              start, 0.0)
    store.add("rpc_endpoint_requests_total",
              {"endpoint": endpoint, "method": method, "code": "ok"},
              end, float(calls - errors))
    if errors:
        store.add("rpc_endpoint_requests_total",
                  {"endpoint": endpoint, "method": method,
                   "code": code}, start, 0.0)
        store.add("rpc_endpoint_requests_total",
                  {"endpoint": endpoint, "method": method,
                   "code": code}, end, float(errors))
    store.add("rpc_endpoint_latency_seconds_total",
              {"endpoint": endpoint, "method": method}, start, 0.0)
    store.add("rpc_endpoint_latency_seconds_total",
              {"endpoint": endpoint, "method": method}, end,
              calls * mean_latency)
    if handled is not None:
        store.add("rpc_server_handled_total", {"endpoint": endpoint},
                  start, 0.0)
        store.add("rpc_server_handled_total", {"endpoint": endpoint},
                  end, float(handled))


class TestHelpers:
    def test_role_of_service_and_member_addresses(self):
        assert role_of("api:dlaas-api-abc123") == "api"
        assert role_of("lcm:dlaas-lcm-x") == "lcm"
        assert role_of("mongo-0") == "mongo"
        assert role_of("etcd-2") == "etcd"

    def test_robust_score_clamps_healthy_side(self):
        # The endpoint *below* its peers never scores.
        assert robust_score(0.001, [0.05, 0.06], abs_floor=0.002) == 0.0

    def test_robust_score_floors_prevent_blowup(self):
        # Two identical peers: MAD is 0, the absolute floor divides.
        assert robust_score(0.022, [0.002, 0.002], abs_floor=0.002) == \
            pytest.approx(10.0)
        # Relative floor demands a multiple of the median.
        score = robust_score(0.0021, [0.002, 0.002], abs_floor=1e-9,
                             rel_floor=0.5)
        assert score == pytest.approx(0.1)


class TestDifferentialDetector:
    def detector(self):
        return DifferentialDetector(window=10.0)

    def test_healthy_peers_score_zero(self):
        store = TimeSeriesStore()
        for ep in ("api:a", "api:b", "api:c"):
            feed(store, ep, "status", calls=100, mean_latency=0.003)
        out = self.detector().eval(store, 10.0, None)
        for ep in ("api:a", "api:b", "api:c"):
            assert series_value(out, ep, "latency") == 0.0

    def test_slow_endpoint_diverges_on_latency(self):
        store = TimeSeriesStore()
        feed(store, "api:a", "status", calls=100, mean_latency=0.003)
        feed(store, "api:b", "status", calls=100, mean_latency=0.050)
        feed(store, "api:c", "status", calls=100, mean_latency=0.003)
        out = self.detector().eval(store, 10.0, None)
        assert series_value(out, "api:b", "latency") > 3.0
        assert series_value(out, "api:a", "latency") == 0.0
        assert series_value(out, "api:c", "latency") == 0.0

    def test_write_methods_score_as_write_latency(self):
        store = TimeSeriesStore()
        feed(store, "mongo-1", "replicate", calls=50, mean_latency=0.15)
        feed(store, "mongo-2", "replicate", calls=50, mean_latency=0.002)
        out = self.detector().eval(store, 10.0, None)
        assert series_value(out, "mongo-1", "write_latency") > 3.0
        assert series_value(out, "mongo-1", "latency") is None

    def test_error_rate_divergence_scores_link(self):
        store = TimeSeriesStore()
        feed(store, "mongo-1", "replicate", calls=50, mean_latency=0.002,
             errors=25)
        feed(store, "mongo-2", "replicate", calls=50, mean_latency=0.002)
        out = self.detector().eval(store, 10.0, None)
        assert series_value(out, "mongo-1", "link") > 3.0
        assert series_value(out, "mongo-2", "link") == 0.0

    @pytest.mark.parametrize("code, scores", [
        ("ServiceError", False),
        ("Unavailable", True),
        ("DeadlineExceeded", True),
    ])
    def test_link_counts_transport_failures_only(self, code, scores):
        """An ex-leader answering every call "not leader" is reachable:
        only calls that never got an answer are link failures."""
        store = TimeSeriesStore()
        feed(store, "etcd-0", "propose", calls=40, mean_latency=0.002,
             errors=40, code=code)
        for ep in ("etcd-1", "etcd-2"):
            feed(store, ep, "propose", calls=40, mean_latency=0.002)
        score = series_value(self.detector().eval(store, 10.0, None),
                             "etcd-0", "link")
        assert (score > 3.0) if scores else (score == 0.0)

    def test_flow_anomaly_scores_link_without_peers(self):
        store = TimeSeriesStore()
        # 100 requests sent, 160 handled: the fabric is duplicating.
        feed(store, "etcd-1", "append_entries", calls=100,
             mean_latency=0.002, handled=160)
        out = self.detector().eval(store, 10.0, None)
        assert series_value(out, "etcd-1", "link") > 3.0

    def test_single_member_group_is_skipped(self):
        store = TimeSeriesStore()
        feed(store, "api:solo", "status", calls=100, mean_latency=0.5)
        out = self.detector().eval(store, 10.0, None)
        assert series_value(out, "api:solo", "latency") is None

    def test_low_traffic_endpoints_are_skipped(self):
        store = TimeSeriesStore()
        feed(store, "api:a", "status", calls=100, mean_latency=0.003)
        feed(store, "api:b", "status", calls=2, mean_latency=0.9)
        out = self.detector().eval(store, 10.0, None)
        assert series_value(out, "api:b", "latency") is None

    def test_labels_carry_role(self):
        store = TimeSeriesStore()
        feed(store, "mongo-1", "replicate", calls=50, mean_latency=0.15)
        feed(store, "mongo-2", "replicate", calls=50, mean_latency=0.002)
        out = self.detector().eval(store, 10.0, None)
        labels = next(dict(k) for k in out
                      if dict(k)["component"] == "mongo-1")
        assert labels["role"] == "mongo"

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            DifferentialDetector(window=0)
