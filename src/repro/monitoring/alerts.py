"""Declarative recording/alert rules over scraped series (SLO engine).

A tiny Prometheus-rules analogue evaluated on the simulation clock:

* expressions are instant vectors over the
  :class:`~repro.sim.timeseries.TimeSeriesStore` —
  :class:`Metric` (freshest sample per matching series),
  :class:`Increase` (counter delta over a trailing window) and ratios
  of the two; comparison operators produce threshold conditions, e.g.
  ``Metric("up", component="api") == 0``;
* a :class:`RecordingRule` writes an expression's result back to the
  store as a derived series;
* an :class:`AlertRule` holds a condition plus a ``for_`` duration and
  walks each matching label set through the Prometheus lifecycle
  inactive -> pending -> firing -> resolved. A condition that clears
  before ``for_`` elapses never fires.

Firing raises a ``Warning`` platform event on the involved component
and is visible as the ``alerts_firing{alert=...}`` gauge; resolution
emits a ``Normal`` event. The default rule pack covers the paper's
failure matrix (API / LCM / Guardian / helper / learner / etcd-member
crash) plus deploy-failure ratio, p99 RPC latency and workqueue-depth
SLOs.

Evaluation reads only in-memory series — no RPCs — so the engine
cannot perturb the simulated job timeline.
"""

from ..sim.periodic import Periodic, Polling
from ..sim.timeseries import counter_increase

PENDING = "pending"
FIRING = "firing"
RESOLVED = "resolved"
INACTIVE = "inactive"


class _Expr:
    """Operator sugar: comparing an expression yields a Condition."""

    def __gt__(self, threshold):
        return Condition(self, ">", threshold)

    def __ge__(self, threshold):
        return Condition(self, ">=", threshold)

    def __lt__(self, threshold):
        return Condition(self, "<", threshold)

    def __le__(self, threshold):
        return Condition(self, "<=", threshold)

    def __eq__(self, threshold):
        return Condition(self, "==", threshold)

    def __ne__(self, threshold):
        return Condition(self, "!=", threshold)

    __hash__ = None

    def __truediv__(self, other):
        return Ratio(self, other)


class Metric(_Expr):
    """Instant vector: freshest non-stale sample of matching series."""

    def __init__(self, name, **match):
        self.name = name
        self.match = match

    def eval(self, store, now, staleness):
        out = {}
        for series in store.series(self.name, **self.match):
            value = series.latest_value(now, staleness)
            if value is not None:
                out[series.labels] = value
        return out

    def __repr__(self):
        match = "".join(f", {k}={v!r}" for k, v in sorted(self.match.items()))
        return f"Metric({self.name!r}{match})"


class Increase(_Expr):
    """Counter increase over a trailing window of scraped samples."""

    def __init__(self, name, window, **match):
        self.name = name
        self.window = window
        self.match = match

    def eval(self, store, now, staleness):
        del staleness  # windows read history; instant staleness n/a
        out = {}
        for series in store.series(self.name, **self.match):
            points = series.window(now - self.window, now)
            if len(points) >= 2:
                out[series.labels] = counter_increase(points)
        return out

    def __repr__(self):
        return f"Increase({self.name!r}, {self.window})"


class Ratio(_Expr):
    """Label-matched division; instances without a positive denominator
    sample are dropped (no division by zero, no phantom ratios)."""

    def __init__(self, numerator, denominator):
        self.numerator = numerator
        self.denominator = denominator

    def eval(self, store, now, staleness):
        num = self.numerator.eval(store, now, staleness)
        den = self.denominator.eval(store, now, staleness)
        out = {}
        for labels, value in num.items():
            below = den.get(labels)
            if below is None and len(den) == 1:
                below = next(iter(den.values()))  # scalar-like denominator
            if below:
                out[labels] = value / below
        return out

    def __repr__(self):
        return f"({self.numerator!r} / {self.denominator!r})"


_OPS = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


class Condition:
    """expression OP threshold -> the satisfied instances."""

    def __init__(self, expr, op, threshold):
        self.expr = expr
        self.op = op
        self.threshold = float(threshold)

    def eval(self, store, now, staleness):
        compare = _OPS[self.op]
        return {labels: value
                for labels, value in self.expr.eval(store, now, staleness).items()
                if compare(value, self.threshold)}

    def __repr__(self):
        return f"{self.expr!r} {self.op} {self.threshold}"


class RecordingRule:
    """Precompute an expression into a named derived series."""

    def __init__(self, name, expr):
        self.name = name
        self.expr = expr


class AlertRule:
    """A condition that must hold for ``for_`` seconds to fire."""

    def __init__(self, name, condition, for_=0.0, severity="warning",
                 description=""):
        if not isinstance(condition, Condition):
            raise TypeError("AlertRule needs a Condition "
                            "(compare a Metric/Increase against a threshold)")
        self.name = name
        self.condition = condition
        self.for_ = for_
        self.severity = severity
        self.description = description


class AlertEngine(Polling):
    """Evaluates recording + alert rules on a fixed simulated cadence."""

    def __init__(self, kernel, store, events=None, metrics=None,
                 interval=1.0, staleness=None):
        self.kernel = kernel
        self.store = store
        self.events = events
        self._loop = Periodic(kernel, "alert-engine", self.evaluate_once,
                              interval)
        # An instant sample older than this is stale. Default: a bit
        # more than two eval ticks, so one late scrape is forgiven.
        self.staleness = staleness if staleness is not None else 2.5 * interval
        self.rules = []
        self.recording_rules = []
        self.active = {}  # (rule_name, labels) -> instance dict
        self.history = []  # transition records, append-only
        if metrics is not None:
            self._g_firing = metrics.gauge(
                "alerts_firing", ("alert",), help="Currently firing alerts")
            self._c_transitions = metrics.counter(
                "alert_transitions_total", ("alert", "state"),
                help="Alert lifecycle transitions by target state")
        else:
            self._g_firing = self._c_transitions = None

    # ------------------------------------------------------------------
    # Rule management
    # ------------------------------------------------------------------

    def add_rule(self, rule):
        self.rules.append(rule)
        if self.events is not None:
            # A rule's name is its event reason; admit it so firing can
            # always be recorded (built-in reasons are already known).
            self.events.register_reason(rule.name)
        if self._g_firing is not None:
            self._g_firing.labels(alert=rule.name).set(0)
        return rule

    def add_recording_rule(self, name, expr):
        rule = RecordingRule(name, expr)
        self.recording_rules.append(rule)
        return rule

    def rule(self, name):
        for rule in self.rules:
            if rule.name == name:
                return rule
        raise KeyError(name)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def evaluate_once(self):
        now = self.kernel.now
        # Recording rules run first so alert rules can use their output
        # in the same pass.
        for rec in self.recording_rules:
            for labels, value in rec.expr.eval(self.store, now,
                                               self.staleness).items():
                self.store.add(rec.name, labels, now, value)
        for rule in self.rules:
            satisfied = rule.condition.eval(self.store, now, self.staleness)
            self._step_rule(rule, satisfied, now)

    def _step_rule(self, rule, satisfied, now):
        for labels, value in satisfied.items():
            key = (rule.name, labels)
            instance = self.active.get(key)
            if instance is None:
                instance = {"rule": rule.name, "labels": labels,
                            "state": PENDING, "since": now, "value": value,
                            "firing_at": None}
                self.active[key] = instance
                self._record(rule, labels, INACTIVE, PENDING, now, value)
            instance["value"] = value
            if (instance["state"] == PENDING
                    and now - instance["since"] >= rule.for_):
                instance["state"] = FIRING
                instance["firing_at"] = now
                self._record(rule, labels, PENDING, FIRING, now, value)
                self._on_firing(rule, labels, value)
        # Instances whose condition cleared.
        for key in [k for k in self.active if k[0] == rule.name
                    and k[1] not in satisfied]:
            instance = self.active.pop(key)
            if instance["state"] == FIRING:
                self._record(rule, instance["labels"], FIRING, RESOLVED, now,
                             instance["value"])
                self._on_resolved(rule, instance["labels"])
            else:
                # Recovered while still pending: never fired, no event.
                self._record(rule, instance["labels"], PENDING, INACTIVE, now,
                             instance["value"])

    def _record(self, rule, labels, old, new, now, value):
        self.history.append({"time": now, "rule": rule.name, "labels": labels,
                             "from": old, "to": new, "value": value})
        if self._c_transitions is not None:
            self._c_transitions.labels(alert=rule.name, state=new).inc()
        if self._g_firing is not None:
            self._g_firing.labels(alert=rule.name).set(self.firing_count(rule.name))

    def _involved(self, rule, labels):
        labels = dict(labels)
        for key, kind in (("component", "Component"), ("key", "EtcdKey"),
                          ("name", "Component")):
            if labels.get(key):
                return kind, labels[key]
        return "Component", rule.name

    def _on_firing(self, rule, labels, value):
        if self.events is None:
            return
        kind, name = self._involved(rule, labels)
        detail = ",".join(f"{k}={v}" for k, v in labels) or "-"
        self.events.emit_event(
            "Warning", rule.name, kind, name,
            message=f"alert {rule.name} firing ({detail}, value {value:g})")

    def _on_resolved(self, rule, labels):
        if self.events is None:
            return
        kind, name = self._involved(rule, labels)
        self.events.emit_event(
            "Normal", "AlertResolved", kind, name,
            message=f"alert {rule.name} resolved")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def firing(self, rule_name=None):
        return [i for i in self.active.values()
                if i["state"] == FIRING
                and (rule_name is None or i["rule"] == rule_name)]

    def firing_count(self, rule_name):
        return len(self.firing(rule_name))

    def transitions(self, rule_name, labels=None):
        """Ordered ``(from, to)`` pairs a rule instance went through."""
        out = []
        for record in self.history:
            if record["rule"] != rule_name:
                continue
            if labels is not None and dict(record["labels"]) != dict(labels):
                continue
            out.append((record["from"], record["to"]))
        return out


# ``for_`` durations: service-level rules ride out one scrape hiccup,
# pod-level rules are tighter because learner/guardian dips last well
# under a second (Fig. 4 recovery bands).
ALERT_SERVICE_FOR = 1.0
ALERT_POD_FOR = 0.2
GRAY_DIVERGENCE_THRESHOLD = 3.0  # robust z-score that alerts


def default_rule_pack(config):
    """Alert rules covering the paper's failure matrix (§IV-V) plus
    platform SLOs; the feature-gated rules follow the platform config."""

    def down(component, for_):
        return Metric("up", component=component) == 0, for_

    rules = []
    for component, reason, for_ in (
        ("api", "ApiDown", ALERT_SERVICE_FOR),
        ("lcm", "LcmDown", ALERT_SERVICE_FOR),
        ("etcd", "EtcdDegraded", ALERT_POD_FOR),
        ("mongo", "MongoDegraded", ALERT_POD_FOR),
        ("nfs", "NfsDown", ALERT_POD_FOR),
        ("guardian", "GuardianDown", ALERT_POD_FOR),
        ("helper", "HelperDown", ALERT_POD_FOR),
        ("learner", "LearnerDown", ALERT_POD_FOR),
    ):
        condition, for_duration = down(component, for_)
        rules.append(AlertRule(reason, condition, for_=for_duration,
                               severity="critical",
                               description=f"up{{component={component}}} == 0"))
    rules.append(AlertRule(
        "DeployFailureRatioHigh",
        Ratio(Increase("guardian_deploy_rollbacks_total", 60.0),
              Increase("guardian_deploy_attempts_total", 60.0)) > 0.5,
        for_=0.0, severity="warning",
        description="more than half of recent guardian deploy attempts "
                    "rolled back"))
    rules.append(AlertRule(
        "RpcLatencyHigh",
        Metric("rpc_client_duration_seconds", quantile="p99") > 1.0,
        for_=ALERT_SERVICE_FOR, severity="warning",
        description="p99 RPC latency above 1s"))
    rules.append(AlertRule(
        "WorkqueueBacklog",
        Metric("workqueue_depth") > 50,
        for_=ALERT_SERVICE_FOR, severity="warning",
        description="keys are piling up across the work queues of one "
                    "kind (all Guardians, all controllers) or in one "
                    "run-long queue (an LCM's deploy or gc)"))
    if config.gray_detection:
        # Gray failures: the differential detector's gray_divergence
        # recording series score each endpoint against its role peers
        # (repro.monitoring.differential). The three signals map to the
        # three injectable gray fault families; the shared ``for_``
        # hold rides out a single-window statistical blip.
        threshold = GRAY_DIVERGENCE_THRESHOLD
        gray_for = config.gray_alert_for
        rules.append(AlertRule(
            "GrayFailureSlow",
            Metric("gray_divergence", signal="latency") > threshold,
            for_=gray_for, severity="warning",
            description="an endpoint's windowed mean RPC latency diverges "
                        "from its role peers while its health probe stays "
                        "up (slow node / degraded NIC)"))
        rules.append(AlertRule(
            "GrayFailurePartition",
            Metric("gray_divergence", signal="link") > threshold,
            for_=gray_for, severity="warning",
            description="an endpoint's error rate diverges from its role "
                        "peers or it serves more requests than callers "
                        "sent (asymmetric partition / loss / duplication)"))
        rules.append(AlertRule(
            "GrayFailureDiskStall",
            Metric("gray_divergence", signal="write_latency") > threshold,
            for_=gray_for, severity="warning",
            description="an endpoint's write/replication latency diverges "
                        "from its role peers (stalling disk under a "
                        "member that still answers reads)"))
    if config.admission_queue_limit > 0:
        # A tenant pinned at its admission-queue limit means quota
        # capacity is not freeing fast enough for its offered load;
        # sustained saturation turns queue waits into 429s.
        rules.append(AlertRule(
            "AdmissionSaturated",
            Metric("admission_queue_depth") >= config.admission_queue_limit,
            for_=ALERT_SERVICE_FOR, severity="warning",
            description="a tenant's admission queue is pinned at its "
                        "limit; over-quota submissions are being "
                        "rejected instead of queued"))
    if config.history_recording:
        # The consistency auditor latches one counter bump per
        # non-linearizable key; any bump at all is a platform-integrity
        # incident, so the rule fires immediately and never resolves
        # until restart (latched counters only move up).
        rules.append(AlertRule(
            "ConsistencyViolation",
            Metric("consistency_violations_total") > 0,
            for_=0.0, severity="critical",
            description="the linearizability checker found a key whose "
                        "recorded client history admits no legal "
                        "serialization (stale read / lost write)"))
    return rules
