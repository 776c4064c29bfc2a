"""Online consistency auditing of the recorded client history.

The :class:`ConsistencyAuditor` is a periodic kernel process that runs
the linearizability checker (:mod:`repro.audit.checker`) over the
flight recorder's history while the platform runs, so a consistency
violation surfaces as monitoring signal within one audit interval
instead of at scenario teardown:

* ``consistency_ops_checked_total`` — operations the checker has
  examined (perfbench's ``audit.ops_checked`` row);
* ``consistency_violations_total{key}`` — incremented once per
  non-linearizable key, which the ``ConsistencyViolation`` alert rule
  in the default pack thresholds.

Unbounded histories would make each pass quadratic, so the auditor
*compacts*: per key it finds the longest closed prefix (every op
completed ``ok`` and responded before any later op was invoked — a
quiescent cut), checks it exhaustively once, and carries the set of
reachable register states across the cut as the next segment's initial
states. Maybe-applied (``info``) operations never respond, so they
block all later cuts for their key — exactly right, because a
maybe-applied write may take effect arbitrarily far in the future and
therefore can never be compacted away.

The auditor draws no RNG and emits no tracer records: with recording
enabled and no fault injected the simulated timeline stays
bit-identical (same argument as the metrics scraper).
"""

from ..sim.periodic import Periodic, Polling
from .checker import (CheckBudgetExceeded, check_operations,
                      render_witness)
from .history import HistoryRecorder  # noqa: F401  (re-export context)

__all__ = ["ConsistencyAuditor"]


def closed_prefix(ops):
    """Length of the longest prefix of ``ops`` (invocation-ordered,
    droppable ops already removed) that is *closed*: all ``ok`` and
    fully responded before any later op's invocation."""
    cut = 0
    max_resp = -1
    for idx, record in enumerate(ops):
        if idx and record.invoke_seq > max_resp:
            cut = idx
        if record.status != "ok":
            return cut
        if record.response_seq > max_resp:
            max_resp = record.response_seq
    return len(ops)


class ConsistencyAuditor(Polling):
    """Periodically check the recorded history key by key."""

    def __init__(self, kernel, history, metrics=None, interval=5.0,
                 max_configs=200_000):
        self.kernel = kernel
        self.history = history
        self.interval = interval
        self._loop = Periodic(kernel, "consistency-auditor", self.audit_once,
                              interval, sleep_first=True)
        self.max_configs = max_configs
        self.ops_checked = 0
        self.passes = 0
        self.violations = []        # witness dicts, in discovery order
        self.budget_exhausted = []  # keys whose search blew the budget
        self._cursor = {}   # key -> (next raw index, carried states)
        self._flagged = set()
        self._m_checked = None
        self._m_violations = None
        if metrics is not None:
            self._m_checked = metrics.counter(
                "consistency_ops_checked_total",
                help="Client operations examined by the linearizability "
                     "checker")
            self._m_violations = metrics.counter(
                "consistency_violations_total", ("key",),
                help="Keys whose recorded client history is not "
                     "linearizable")

    # ------------------------------------------------------------------
    # One audit pass
    # ------------------------------------------------------------------

    def audit_once(self):
        """Check every auditable key; returns ops examined this pass."""
        examined = 0
        self.passes += 1
        for key in self.history.keys():
            if key in self._flagged or not self.history.auditable(key):
                continue
            if self.history.range_pending(key):
                # Its observations are filed at the response but in
                # invocation order: compacting now could cut past them.
                continue
            examined += self._audit_key(key)
        if examined and self._m_checked is not None:
            self._m_checked.inc(examined)
        self.ops_checked += examined
        return examined

    def _audit_key(self, key):
        raw = self.history.ops_for_key(key)
        start, states = self._cursor.get(key, (0, (None,)))
        indexed = [(i, record) for i, record in
                   enumerate(raw[start:], start=start)
                   if not _dropped(record)]
        if not indexed:
            return 0
        ops = [record for _, record in indexed]
        examined = 0
        cut = closed_prefix(ops)
        if cut:
            outcome = self._check(key, ops[:cut], states,
                                  collect_final=True)
            examined += cut
            if outcome is None or not outcome.ok:
                return examined
            states = tuple(sorted(outcome.final_states,
                                  key=lambda v: (v is not None, str(v))))
            start = (indexed[cut][0] if cut < len(indexed) else len(raw))
            self._cursor[key] = (start, states)
        tail = ops[cut:]
        if tail:
            outcome = self._check(key, tail, states, collect_final=False)
            examined += len(tail)
            del outcome  # violation already latched in _check
        return examined

    def _check(self, key, ops, states, collect_final):
        try:
            outcome = check_operations(ops, initial_states=states,
                                       collect_final=collect_final,
                                       max_configs=self.max_configs)
        except CheckBudgetExceeded:
            # Can't decide this key anymore; freeze it rather than stall
            # every subsequent pass re-searching the same blowup.
            self._flagged.add(key)
            self.budget_exhausted.append(key)
            return None
        if not outcome.ok:
            self._flagged.add(key)
            self.violations.append(outcome.witness)
            if self._m_violations is not None:
                self._m_violations.labels(key=key).inc()
        return outcome

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    @property
    def ok(self):
        return not self.violations

    def summary(self):
        return {
            "passes": self.passes,
            "ops_checked": self.ops_checked,
            "keys_flagged": sorted(self._flagged),
            "violations": len(self.violations),
            "budget_exhausted": list(self.budget_exhausted),
        }

    def render_violations(self):
        return "\n\n".join(render_witness(w) for w in self.violations)


def _dropped(record):
    if record.status == "fail":
        return True
    return record.status in ("info", "invoke") and record.op == "get"
