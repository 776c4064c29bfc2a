"""Cluster GPU utilization, as the monitoring store serves it.

The scraper sets ``cluster_gpus_allocated`` / ``cluster_gpus_total``
from the cluster's capacity on every pass (a pure read), so every
platform has the series, and nothing has to start a second sampler to
get them.
"""

from repro.monitoring import render_dashboard

from .conftest import manifest


def gpu_series(platform, name="cluster_gpus_allocated"):
    (series,) = platform.monitoring.store.series(name)
    return series.values()


class TestGpuUtilization:
    def test_peak_during_a_job_and_zero_after(self, platform, client):
        platform.run_process(client.run_to_completion(manifest()), limit=50_000)
        platform.run_for(10.0)

        allocated = gpu_series(platform)
        assert max(allocated) >= 1
        assert allocated[-1] == 0
        assert set(gpu_series(platform, "cluster_gpus_total")) == {8}  # 2 x 4

    def test_gauges_reach_the_exposition(self, platform, client):
        platform.run_process(client.run_to_completion(manifest()), limit=50_000)
        platform.run_for(10.0)

        metrics = platform.metrics
        assert metrics.get("cluster_gpus_total").value == 8
        assert metrics.get("cluster_gpus_allocated").value == 0
        exposition = metrics.expose()
        assert "cluster_gpus_total 8" in exposition
        assert "cluster_gpus_allocated 0" in exposition

    def test_dashboard_shows_the_gpu_row_on_a_default_platform(self, platform):
        platform.run_for(10.0)

        assert len(platform.monitoring.store.series("cluster_gpus_allocated")) == 1
        assert "cluster_gpus_allocated" in render_dashboard(platform)
