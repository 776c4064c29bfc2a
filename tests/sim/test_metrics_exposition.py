"""Satellite regression tests: snapshot None-safety, label escaping,
and the bucket-derived quantile estimator the scraper relies on."""

import json

from repro.sim import MetricsRegistry


class TestEmptyHistogramSnapshot:
    def test_zero_observation_child_reports_none(self):
        registry = MetricsRegistry()
        hist = registry.histogram("rpc_seconds", ("method",))
        hist.labels(method="submit")  # child exists, never observed
        snap = registry.snapshot()
        entry = snap['rpc_seconds{method="submit"}']
        assert entry["count"] == 0
        for stat in ("mean", "min", "max", "p50", "p95", "p99"):
            assert entry[stat] is None, stat

    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.histogram("empty_hist").labels()
        registry.counter("hits").inc()
        text = json.dumps(registry.snapshot())  # NaN would raise here
        assert "NaN" not in text

    def test_observed_child_still_reports_stats(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        hist.observe(2.0)
        entry = registry.snapshot()["h"]
        assert entry == {"count": 1, "mean": 2.0, "min": 2.0, "max": 2.0,
                         "p50": 2.0, "p95": 2.0, "p99": 2.0}


class TestLabelEscaping:
    def test_pathological_label_values_escaped(self):
        registry = MetricsRegistry()
        counter = registry.counter("jobs_total", ("job",))
        counter.labels(job='weird"job\\name\nwith newline').inc()
        text = registry.expose()
        assert 'job="weird\\"job\\\\name\\nwith newline"' in text
        # The raw control characters never reach the exposition.
        payload = [line for line in text.splitlines()
                   if line.startswith("jobs_total{")]
        assert len(payload) == 1
        assert payload[0].endswith(" 1")

    def test_help_text_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c", help="line one\nline two \\ backslash").inc()
        text = registry.expose()
        assert "# HELP c line one\\nline two \\\\ backslash" in text

    def test_plain_values_unchanged(self):
        registry = MetricsRegistry()
        registry.counter("ops_total", ("op",)).labels(op="submit").inc()
        assert 'ops_total{op="submit"} 1' in registry.expose()


class TestBucketPercentile:
    def test_empty_child_returns_none(self):
        hist = MetricsRegistry().histogram("h")
        assert hist.labels().bucket_percentile(50) is None

    def test_interpolates_within_bucket(self):
        hist = MetricsRegistry().histogram("h")
        hist.buckets = (1.0, 2.0, 4.0)
        child = hist.labels()
        for value in (1.5, 1.5, 1.5, 1.5):  # all in the (1, 2] bucket
            child.observe(value)
        p50 = child.bucket_percentile(50)
        assert 1.0 < p50 <= 2.0

    def test_first_bucket_interpolates_from_zero(self):
        hist = MetricsRegistry().histogram("h")
        hist.buckets = (1.0, 2.0)
        child = hist.labels()
        child.observe(0.5)
        assert 0.0 < child.bucket_percentile(99) <= 1.0

    def test_inf_bucket_clamps_to_largest_bound(self):
        hist = MetricsRegistry().histogram("h")
        hist.buckets = (1.0, 2.0)
        child = hist.labels()
        child.observe(100.0)
        assert child.bucket_percentile(99) == 2.0

    def test_tracks_exact_percentile_roughly(self):
        hist = MetricsRegistry().histogram("h")
        child = hist.labels()
        for i in range(1, 101):
            child.observe(i / 100.0)
        exact = child.percentile(95)
        estimate = child.bucket_percentile(95)
        assert abs(estimate - exact) < 0.3
