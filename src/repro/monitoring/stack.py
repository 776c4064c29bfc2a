"""Assembly of the monitoring subsystem for a DlaasPlatform.

One object owning the series store, the scraper, the alert engine
(loaded with the default rule pack and the gray-failure detector) and,
when history recording is on, the consistency auditor. Always
constructed by ``DlaasPlatform`` and started alongside the core
services.

Everything here observes without perturbing: scraping, rule evaluation
and auditing are pure in-memory reads that issue no RPC. An RPC would
consume draws from the shared network-jitter RNG stream and shift
every subsequent call's latency — the simulated job timeline must be
bit-identical with the stack running or stopped.
"""

from .alerts import AlertEngine, default_rule_pack
from .differential import DifferentialDetector
from .scraper import MetricsScraper
from ..sim.timeseries import TimeSeriesStore


class PlatformScraper(MetricsScraper):
    """The platform's scraper: each pass also sets the cluster's GPU
    gauges from the API server's nodes, a pure read like the kernel's
    counters, so the dashboard's GPU row needs no second sampler."""

    def __init__(self, platform, store):
        super().__init__(platform.kernel, store, platform.metrics,
                         platform.health,
                         interval=platform.config.scrape_interval)
        self.cluster = platform.k8s
        self._g_gpus_total = platform.metrics.gauge(
            "cluster_gpus_total", help="GPUs in the cluster")
        self._g_gpus_allocated = platform.metrics.gauge(
            "cluster_gpus_allocated", help="GPUs currently allocated to pods")

    def scrape_once(self):
        capacity = self.cluster.capacity_summary()
        self._g_gpus_total.set(capacity["gpus_total"])
        self._g_gpus_allocated.set(capacity["gpus_allocated"])
        super().scrape_once()


class MonitoringStack:
    """Scraper + series store + alert engine + auditor."""

    def __init__(self, platform):
        config = platform.config
        self.platform = platform
        self.store = TimeSeriesStore()
        self.scraper = PlatformScraper(platform, self.store)
        self.engine = AlertEngine(
            platform.kernel, self.store, events=platform.events,
            metrics=platform.metrics, interval=config.alert_eval_interval,
            staleness=3.0 * config.scrape_interval)
        # Gray-failure detection: the detector runs as a recording rule
        # (pure series-store reads) so divergence scores land in the
        # store before the GrayFailure* alert rules of the same pass.
        self.detector = DifferentialDetector(window=config.gray_window)
        self.engine.add_recording_rule("gray_divergence", self.detector)
        for rule in default_rule_pack(config):
            self.engine.add_rule(rule)
        # Consistency audit: periodic linearizability checking of the
        # flight-recorded raftkv client history. Pure in-memory reads of
        # the recorder plus counter bumps — same non-perturbation
        # argument as the scraper.
        if platform.history is not None:
            from ..audit import ConsistencyAuditor

            self.auditor = ConsistencyAuditor(
                platform.kernel, platform.history,
                metrics=platform.metrics,
                interval=config.audit_interval)
        else:
            self.auditor = None

    def start(self):
        self.scraper.start()
        self.engine.start()
        if self.auditor is not None:
            self.auditor.start()
        return self

    def stop(self):
        self.scraper.stop()
        self.engine.stop()
        if self.auditor is not None:
            self.auditor.stop()
        return self
