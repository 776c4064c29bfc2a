"""Kubernetes-style typed platform events (FfDL's operational record).

Every notable platform occurrence — deploy retries and rollbacks,
component crashes and restarts, leader elections, scheduling failures,
firing alerts — is recorded as a typed event (``Normal``/``Warning``)
against an involved object. Identical repeats *deduplicate*: the
existing record's count and last-seen time advance instead of the log
growing one entry per repeat, so a crash-looping pod costs one record,
not thousands.

The recorder is pure in-memory bookkeeping on the simulation kernel's
clock; it never issues RPCs, so recording (or not recording) events
cannot perturb the simulated timeline. It is the platform's only event
log: the alert engine writes to it, and the dashboard and tests read
it. Nothing persists it (DESIGN.md "A write needs a reader"), and
nothing keeps a second list: the simulated Kubernetes cluster's own
events are ``apiserver`` / ``k8s-event`` trace records
(``ApiServer.record_event``), which job timelines read.

``reason`` strings are a closed, static vocabulary: CamelCase tokens
registered below (or via :meth:`EventRecorder.register_reason`).
Free-form detail belongs in ``message``. The AST lint
``scripts/lint_event_reasons.py`` enforces this at check time, and the
recorder enforces it at runtime.
"""

import re

EVENT_NORMAL = "Normal"
EVENT_WARNING = "Warning"

_REASON_RE = re.compile(r"^[A-Z][A-Za-z0-9]*$")

# The registered reason vocabulary. scripts/lint_event_reasons.py
# parses this literal, so keep it a plain frozenset of string literals.
REASONS = frozenset({
    # Alerting engine (repro.monitoring.alerts)
    "AlertResolved",
    "ApiDown",
    "LcmDown",
    "GuardianDown",
    "HelperDown",
    "LearnerDown",
    "EtcdDegraded",
    "MongoDegraded",
    "NfsDown",
    "DeployFailureRatioHigh",
    "RpcLatencyHigh",
    "WorkqueueBacklog",
    # Guardian deploy / monitor / finish
    "DeployRetry",
    "DeployRollback",
    "DeployAttemptsExhausted",
    "Deployed",
    "JobCompleted",
    "JobFailed",
    "JobHalted",
    "LearnerStalled",
    # LCM
    "GuardianCreated",
    "GuardianCollected",
    # Partitioned LCM pool (repro.core.partitions)
    "SliceAssigned",
    "SliceAdopted",
    # Admission: the API tier's per-tenant rate limit (repro.core.api)
    "TenantThrottled",
    # Core-service pods
    "ComponentReady",
    "ComponentStopped",
    "ComponentCrashed",
    # Helper / learner exit paths (controller reports)
    "LearnerCompleted",
    "LearnerFailed",
    "DataStaged",
    "ResultsStored",
    # Cluster layer
    "Unschedulable",
    "ContainerRestarted",
    # Gray failures (repro.sim.faults / repro.monitoring.differential)
    "FaultInjected",
    "GrayFailureSlow",
    "GrayFailurePartition",
    "GrayFailureDiskStall",
    # Consistency audit (repro.audit)
    "ConsistencyViolation",
    # Substrates
    "LeaderElected",
    "MongoMemberDown",
    "MongoMemberUp",
    "NfsOutage",
    "NfsRestored",
})


class PlatformEvent:
    """One (deduplicated) event record."""

    __slots__ = ("type", "reason", "kind", "name", "message", "job",
                 "count", "first_time", "last_time")

    def __init__(self, type, reason, kind, name, message, job, time):
        self.type = type
        self.reason = reason
        self.kind = kind
        self.name = name
        self.message = message
        self.job = job
        self.count = 1
        self.first_time = time
        self.last_time = time

    def __repr__(self):
        return (f"<{self.type} {self.reason} {self.kind}/{self.name} "
                f"x{self.count} @{self.last_time:.2f}>")


class EventRecorder:
    """In-memory event log with Kubernetes-style dedup."""

    def __init__(self, kernel, metrics):
        self.kernel = kernel
        self._events = []  # insertion order
        self._by_key = {}
        self._reasons = set(REASONS)
        self._m_events = metrics.counter(
            "platform_events_total", ("type", "reason"),
            help="Platform events emitted, including deduplicated repeats")

    def register_reason(self, reason):
        """Admit a reason outside the built-in vocabulary (custom alert
        rules, tests). Still must be a static CamelCase token."""
        if not _REASON_RE.match(reason):
            raise ValueError(
                f"invalid event reason {reason!r}: reasons are static "
                "CamelCase tokens; put detail in the message")
        self._reasons.add(reason)
        return reason

    def emit_event(self, type, reason, kind, name, message="", job=None):
        """Record one event; repeats of the same (type, reason, kind,
        name) bump the existing record's count instead of appending."""
        if type not in (EVENT_NORMAL, EVENT_WARNING):
            raise ValueError(f"event type must be Normal or Warning, got {type!r}")
        if reason not in self._reasons:
            if not _REASON_RE.match(reason):
                raise ValueError(
                    f"invalid event reason {reason!r}: reasons are static "
                    "CamelCase tokens; put detail in the message")
            raise ValueError(
                f"unregistered event reason {reason!r}; add it to "
                "repro.core.events.REASONS or call register_reason()")
        self._m_events.labels(type=type, reason=reason).inc()
        key = (type, reason, kind, name)
        event = self._by_key.get(key)
        if event is not None:
            event.count += 1
            event.last_time = self.kernel.now
            event.message = message or event.message
            return event
        event = PlatformEvent(type, reason, kind, name, message, job,
                              self.kernel.now)
        self._events.append(event)
        self._by_key[key] = event
        return event

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def events(self, job=None, kind=None, name=None, reason=None, type=None):
        """Events in first-seen order, filtered by any combination."""
        out = []
        for event in self._events:
            if job is not None and event.job != job:
                continue
            if kind is not None and event.kind != kind:
                continue
            if name is not None and event.name != name:
                continue
            if reason is not None and event.reason != reason:
                continue
            if type is not None and event.type != type:
                continue
            out.append(event)
        return out

    def warnings(self, **filters):
        return self.events(type=EVENT_WARNING, **filters)

    def __len__(self):
        return len(self._events)
