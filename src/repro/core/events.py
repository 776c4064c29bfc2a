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
cannot perturb the simulated timeline. Persistence to the docstore is
a separate concern (``repro.monitoring.stack.EventFlusher``), as is
querying over REST (``GET /events``, ``GET /jobs/{id}/events``).

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
    # Admission control (repro.core.admission)
    "TenantThrottled",
    "AdmissionSaturated",
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
    "Preempted",
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
                 "count", "first_time", "last_time", "seq")

    def __init__(self, type, reason, kind, name, message, job, time, seq):
        self.type = type
        self.reason = reason
        self.kind = kind
        self.name = name
        self.message = message
        self.job = job
        self.count = 1
        self.first_time = time
        self.last_time = time
        self.seq = seq

    @property
    def key(self):
        return (self.type, self.reason, self.kind, self.name)

    def to_doc(self):
        """Plain-dict form for docstore persistence and REST responses."""
        return {
            "event_key": "/".join(self.key),
            "type": self.type,
            "reason": self.reason,
            "kind": self.kind,
            "name": self.name,
            "message": self.message,
            "job": self.job,
            "count": self.count,
            "first_time": self.first_time,
            "last_time": self.last_time,
        }

    def __repr__(self):
        return (f"<{self.type} {self.reason} {self.kind}/{self.name} "
                f"x{self.count} @{self.last_time:.2f}>")


class EventRecorder:
    """In-memory event log with Kubernetes-style dedup."""

    def __init__(self, kernel, metrics=None):
        self.kernel = kernel
        self._events = []  # insertion order
        self._by_key = {}
        self._reasons = set(REASONS)
        self._dirty = {}  # key -> event, touched since last drain
        self._seq = 0
        if metrics is not None:
            self._m_events = metrics.counter(
                "platform_events_total", ("type", "reason"),
                help="Platform events emitted, including deduplicated repeats")
        else:
            self._m_events = None

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
        if self._m_events is not None:
            self._m_events.labels(type=type, reason=reason).inc()
        key = (type, reason, kind, name)
        event = self._by_key.get(key)
        if event is not None:
            event.count += 1
            event.last_time = self.kernel.now
            event.message = message or event.message
            self._dirty[key] = event
            return event
        self._seq += 1
        event = PlatformEvent(type, reason, kind, name, message, job,
                              self.kernel.now, self._seq)
        self._events.append(event)
        self._by_key[key] = event
        self._dirty[key] = event
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

    def get(self, type, reason, kind, name):
        return self._by_key.get((type, reason, kind, name))

    def __len__(self):
        return len(self._events)

    # ------------------------------------------------------------------
    # Persistence hook (drained by the monitoring stack's flusher)
    # ------------------------------------------------------------------

    def drain_dirty(self):
        """Events created or re-counted since the last drain."""
        dirty = sorted(self._dirty.values(), key=lambda e: e.seq)
        self._dirty = {}
        return dirty
