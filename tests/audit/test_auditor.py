"""Unit tests for the online consistency auditor (compaction, latch,
metrics) against a hand-driven recorder."""

import pytest

from repro.audit import ConsistencyAuditor, HistoryRecorder
from repro.audit.auditor import closed_prefix
from repro.sim import MetricsRegistry


class FakeKernel:
    def __init__(self):
        self.now = 0.0


class Harness:
    def __init__(self, max_configs=200_000):
        self.kernel = FakeKernel()
        self.history = HistoryRecorder(self.kernel)
        self.metrics = MetricsRegistry()
        self.auditor = ConsistencyAuditor(self.kernel, self.history,
                                          metrics=self.metrics)
        self.auditor.max_configs = max_configs

    def put(self, value, key="/k", client="c1"):
        record = self.history.invoke(client, "put", key, value)
        self.kernel.now += 1.0
        self.history.complete(record, {"ok": True})
        return record

    def get(self, observed, key="/k", client="c1"):
        record = self.history.invoke(client, "get", key, None)
        self.kernel.now += 1.0
        self.history.complete(record, observed)
        return record

    def checked_total(self):
        return self.metrics.counter(
            "consistency_ops_checked_total").labels().value

    def violations_for(self, key):
        return self.metrics.counter(
            "consistency_violations_total", ("key",)).labels(key=key).value


@pytest.fixture
def h():
    return Harness()


class TestClosedPrefix:
    class Op:
        def __init__(self, invoke_seq, response_seq, status="ok"):
            self.invoke_seq = invoke_seq
            self.response_seq = response_seq
            self.status = status

    def test_sequential_history_is_fully_closed(self):
        ops = [self.Op(0, 1), self.Op(2, 3), self.Op(4, 5)]
        assert closed_prefix(ops) == 3

    def test_all_ok_overlapping_history_is_fully_closed(self):
        # Overlap within an all-ok prefix is fine: every op responded,
        # so the exhaustive check can still compact the whole thing.
        ops = [self.Op(0, 1), self.Op(2, 3), self.Op(4, 7), self.Op(5, 6)]
        assert closed_prefix(ops) == 4

    def test_cut_lands_at_last_quiescent_point_before_info(self):
        # The info op overlaps the preceding ok op, so the cut falls
        # back to the quiescent point before both.
        ops = [self.Op(0, 1), self.Op(2, 3), self.Op(4, 7),
               self.Op(5, None, status="info")]
        assert closed_prefix(ops) == 2

    def test_non_ok_op_blocks_the_cut_forever(self):
        ops = [self.Op(0, 1), self.Op(2, None, status="info"),
               self.Op(4, 5)]
        assert closed_prefix(ops) == 1

    def test_leading_pending_op_means_no_cut(self):
        ops = [self.Op(0, None, status="info"), self.Op(2, 3)]
        assert closed_prefix(ops) == 0


class TestAuditPasses:
    def test_incremental_passes_examine_each_op_once(self, h):
        h.put("v1")
        h.get("v1")
        assert h.auditor.audit_once() == 2
        assert h.auditor.audit_once() == 0  # nothing new
        h.put("v2")
        assert h.auditor.audit_once() == 1
        assert h.auditor.ops_checked == 3
        assert h.checked_total() == 3.0
        assert h.auditor.ok
        assert h.auditor.summary()["passes"] == 3

    def test_states_carry_across_compaction(self, h):
        h.put("v1")
        h.auditor.audit_once()  # compacts the put away
        h.get("v1")  # only legal against the carried state
        h.auditor.audit_once()
        assert h.auditor.ok

    def test_stale_read_after_compaction_still_flagged(self, h):
        h.put("v1")
        h.put("v2")
        h.auditor.audit_once()
        h.get("v1")  # stale relative to the compacted prefix
        h.auditor.audit_once()
        assert not h.auditor.ok
        assert h.auditor.violations[0]["key"] == "/k"

    def test_violation_latches_and_counts_once(self, h):
        h.put("v1")
        h.put("v2")
        h.get("v1")
        h.auditor.audit_once()
        assert not h.auditor.ok
        assert h.violations_for("/k") == 1.0
        before = h.auditor.ops_checked
        h.get("v2")  # flagged key: never examined again
        assert h.auditor.audit_once() == 0
        assert h.auditor.ops_checked == before
        assert h.violations_for("/k") == 1.0
        assert len(h.auditor.violations) == 1
        assert "linearizability violation" in h.auditor.render_violations()

    def test_keys_audited_independently(self, h):
        h.put("a1", key="/a")
        h.put("b1", key="/b")
        h.put("b2", key="/b")
        h.get("b1", key="/b")
        h.auditor.audit_once()
        assert [w["key"] for w in h.auditor.violations] == ["/b"]
        h.get("a1", key="/a")  # the clean key keeps being audited
        assert h.auditor.audit_once() == 1
        assert h.auditor.summary()["violations"] == 1

    def test_unauditable_keys_skipped(self, h):
        h.put("v1", key="/leased")
        h.history.mark_leased("/leased")
        assert h.auditor.audit_once() == 0

    def test_budget_exhaustion_freezes_key_without_violation(self):
        h = Harness(max_configs=5)
        pending = [h.history.invoke(f"c{i}", "put", "/k", f"v{i}")
                   for i in range(10)]
        h.kernel.now += 1.0
        for record in pending:
            h.history.info(record)
        h.get("v0")
        h.auditor.audit_once()
        assert h.auditor.budget_exhausted == ["/k"]
        assert h.auditor.ok  # inconclusive, not a violation
        h.put("v1")
        assert h.auditor.audit_once() == 0  # frozen key
