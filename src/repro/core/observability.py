"""Platform observability: utilization and job-state time series.

Operating a shared GPU platform (the paper's economic motivation, §I)
requires knowing how well the expensive hardware is utilized. The
monitor samples cluster and job state on a fixed cadence into in-memory
time series and produces operator summaries — the simulated analogue of
a Prometheus + Grafana pair.
"""

from ..sim.errors import ProcessKilled
from ..sim.periodic import Periodic, Polling


class ClusterMonitor(Polling):
    """Periodic sampler of GPU utilization and job states."""

    def __init__(self, platform, interval=5.0):
        self.platform = platform
        self.kernel = platform.kernel
        self.samples = []
        self._mongo = platform.mongo_client("cluster-monitor")
        self._loop = Periodic(self.kernel, "cluster-monitor",
                              self.sample_once, interval)
        # Each sample also updates the shared registry so the REST
        # /metrics endpoint exposes the same numbers operators would
        # scrape from a real cluster.
        metrics = platform.metrics
        self._g_gpus_total = metrics.gauge(
            "cluster_gpus_total", help="GPUs in the cluster")
        self._g_gpus_allocated = metrics.gauge(
            "cluster_gpus_allocated", help="GPUs currently allocated to pods")
        self._g_nodes = metrics.gauge(
            "cluster_nodes", help="Schedulable nodes")
        self._g_pods = metrics.gauge(
            "cluster_pods", ("phase",), help="Pods by phase")
        self._g_jobs = metrics.gauge(
            "cluster_jobs", ("status",), help="DL jobs by status")
        # Label values seen so far; counts that drop to zero must be
        # written as 0, not left at their last value.
        self._seen_phases = set()
        self._seen_statuses = set()

    def sample_once(self):
        capacity = self.platform.k8s.capacity_summary()
        pods = self.platform.k8s.api.list("Pod")
        phases = {}
        for pod in pods:
            phases[pod.phase] = phases.get(pod.phase, 0) + 1
        try:
            jobs = yield from self._mongo.find("jobs", {},
                                               projection=["status"])
        except ProcessKilled:
            raise
        except Exception:
            jobs = []
        statuses = {}
        for job in jobs:
            statuses[job["status"]] = statuses.get(job["status"], 0) + 1
        self.samples.append({
            "time": self.kernel.now,
            "gpus_total": capacity["gpus_total"],
            "gpus_allocated": capacity["gpus_allocated"],
            "nodes": capacity["nodes"],
            "pods": phases,
            "jobs": statuses,
        })
        self._publish(capacity, phases, statuses)

    def _publish(self, capacity, phases, statuses):
        self._g_gpus_total.set(capacity["gpus_total"])
        self._g_gpus_allocated.set(capacity["gpus_allocated"])
        self._g_nodes.set(capacity["nodes"])
        self._seen_phases.update(phases)
        for phase in self._seen_phases:
            self._g_pods.labels(phase=phase).set(phases.get(phase, 0))
        self._seen_statuses.update(statuses)
        for status in self._seen_statuses:
            self._g_jobs.labels(status=status).set(statuses.get(status, 0))

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def utilization_series(self):
        """(time, fraction-of-GPUs-allocated) points."""
        return [
            (s["time"], s["gpus_allocated"] / s["gpus_total"])
            for s in self.samples if s["gpus_total"]
        ]

    def summary(self):
        series = self.utilization_series()
        if not series:
            return {"samples": 0, "mean_utilization": 0.0, "peak_utilization": 0.0}
        values = [value for _time, value in series]
        return {
            "samples": len(series),
            "mean_utilization": sum(values) / len(values),
            "peak_utilization": max(values),
            "window_seconds": series[-1][0] - series[0][0],
        }

    def report(self, width=50):
        """Text sparkline of GPU utilization over the sampled window."""
        series = self.utilization_series()
        if not series:
            return "no samples"
        blocks = " ▁▂▃▄▅▆▇█"
        step = max(1, len(series) // width)
        cells = []
        for i in range(0, len(series), step):
            chunk = [v for _t, v in series[i:i + step]]
            level = sum(chunk) / len(chunk)
            cells.append(blocks[min(8, int(level * 8 + 0.5))])
        summary = self.summary()
        return (
            f"GPU utilization over {summary['window_seconds']:.0f}s "
            f"(mean {summary['mean_utilization']:.0%}, "
            f"peak {summary['peak_utilization']:.0%})\n"
            f"[{''.join(cells)}]"
        )
