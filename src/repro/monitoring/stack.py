"""Assembly of the monitoring subsystem for a DlaasPlatform.

One object owning the series store, the scraper, the alert engine
(loaded with the default rule pack) and the event flusher. Constructed
by ``DlaasPlatform`` when ``PlatformConfig(monitoring=True)`` and
started alongside the core services.

Everything here observes without perturbing: scraping and rule
evaluation are pure in-memory reads, and event persistence writes
*directly* into the Mongo members' databases (the same path bootstrap
index creation uses) rather than through the RPC fabric. An RPC would
consume draws from the shared network-jitter RNG stream and shift
every subsequent call's latency — the simulated job timeline must be
bit-identical with monitoring on or off.
"""

from .alerts import AlertEngine, default_rule_pack
from .differential import DifferentialDetector
from .scraper import MetricsScraper
from ..sim.periodic import Periodic, Polling
from ..sim.timeseries import TimeSeriesStore


class EventFlusher(Polling):
    """Periodically persists dirty platform events to the docstore."""

    def __init__(self, kernel, recorder, replica_set, interval=1.0):
        self.kernel = kernel
        self.recorder = recorder
        self.replica_set = replica_set
        self._loop = Periodic(kernel, "event-flusher", self.flush_once,
                              interval)

    def flush_once(self):
        """Upsert every event touched since the last flush into each
        alive member. A member that is down misses the write and
        catches up through its restart initial sync."""
        dirty = self.recorder.drain_dirty()
        if not dirty:
            return 0
        for event in dirty:
            doc = event.to_doc()
            for member in self.replica_set.members.values():
                if not member.alive:
                    continue
                member.database.collection("events").update_one(
                    {"event_key": doc["event_key"]}, {"$set": dict(doc)},
                    upsert=True)
        return len(dirty)


class MonitoringStack:
    """Scraper + series store + alert engine + event flusher."""

    def __init__(self, platform):
        config = platform.config
        self.platform = platform
        self.store = TimeSeriesStore()
        self.scraper = MetricsScraper(
            platform.kernel, self.store, interval=config.scrape_interval,
            registry=platform.metrics, health=platform.health)
        self.engine = AlertEngine(
            platform.kernel, self.store, events=platform.events,
            metrics=platform.metrics, interval=config.alert_eval_interval,
            staleness=3.0 * config.scrape_interval)
        # Gray-failure detection: the detector runs as a recording rule
        # (pure series-store reads) so divergence scores land in the
        # store before the GrayFailure* alert rules of the same pass.
        if config.gray_detection:
            self.detector = DifferentialDetector(window=config.gray_window)
            self.engine.add_recording_rule("gray_divergence", self.detector)
        else:
            self.detector = None
        for rule in default_rule_pack(config):
            self.engine.add_rule(rule)
        # Consistency audit: periodic linearizability checking of the
        # flight-recorded raftkv client history. Pure in-memory reads of
        # the recorder plus counter bumps — same non-perturbation
        # argument as the scraper.
        if getattr(platform, "history", None) is not None:
            from ..audit import ConsistencyAuditor

            self.auditor = ConsistencyAuditor(
                platform.kernel, platform.history,
                metrics=platform.metrics,
                interval=config.audit_interval)
        else:
            self.auditor = None
        self.flusher = EventFlusher(
            platform.kernel, platform.events, platform.mongo,
            interval=config.event_flush_interval)

    def start(self):
        self.scraper.start()
        self.engine.start()
        if self.auditor is not None:
            self.auditor.start()
        self.flusher.start()
        return self

    def stop(self):
        self.scraper.stop()
        self.engine.stop()
        if self.auditor is not None:
            self.auditor.stop()
        self.flusher.stop()
        return self
