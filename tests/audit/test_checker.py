"""Unit tests for the linearizability checker (register/CAS/delete model)."""

import pytest

from repro.audit import checker
from repro.audit import (
    CheckBudgetExceeded,
    HistoryRecorder,
    check_history,
    check_operations,
    render_witness,
)


class FakeKernel:
    def __init__(self):
        self.now = 0.0


class HistoryBuilder:
    """Sequential-history shorthand over the real recorder, so the
    checker sees exactly the seq numbers production code produces."""

    def __init__(self):
        self.kernel = FakeKernel()
        self.history = HistoryRecorder(self.kernel)

    def tick(self):
        self.kernel.now += 1.0

    def invoke(self, client, op, key="/k", args=None):
        self.tick()
        return self.history.invoke(client, op, key, args)

    def op(self, client, op, args=None, result=None, key="/k",
           status="ok"):
        """One non-overlapping op: invoke and finish immediately."""
        record = self.invoke(client, op, key, args)
        self.tick()
        if status == "ok":
            self.history.complete(record, result)
        elif status == "fail":
            self.history.fail(record)
        else:
            self.history.info(record)
        return record

    def put(self, value, client="c1", **kw):
        return self.op(client, "put", args=value, result={"ok": True}, **kw)

    def get(self, observed, client="c1", **kw):
        return self.op(client, "get", result=observed, **kw)

    def cas(self, expected, new, result, client="c1", **kw):
        return self.op(client, "cas", args=(expected, new), result=result,
                       **kw)

    def delete(self, deleted, client="c1", **kw):
        return self.op(client, "delete", result={"deleted": deleted}, **kw)

    def ops(self, key="/k"):
        return self.history.ops_for_key(key)


@pytest.fixture
def h():
    return HistoryBuilder()


class TestSequentialHistories:
    def test_empty_history_is_linearizable(self):
        outcome = check_operations([])
        assert outcome.ok
        assert outcome.ops_considered == 0

    def test_put_get_cas_delete_chain(self, h):
        h.get(None)
        h.put("v1")
        h.get("v1")
        h.cas("v1", "v2", {"ok": True})
        h.get("v2")
        h.delete(True)
        h.get(None)
        assert check_operations(h.ops()).ok

    def test_failed_cas_reports_actual(self, h):
        h.put("v1")
        h.cas("other", "v2", {"ok": False, "actual": "v1"})
        h.get("v1")
        assert check_operations(h.ops()).ok

    def test_failed_cas_with_wrong_actual_rejected(self, h):
        h.put("v1")
        h.cas("other", "v2", {"ok": False, "actual": "v9"})
        assert not check_operations(h.ops()).ok

    def test_delete_of_absent_key_observes_not_deleted(self, h):
        h.delete(False)
        h.put("v1")
        h.delete(True)
        assert check_operations(h.ops()).ok

    def test_stale_read_detected(self, h):
        h.put("v1")
        h.put("v2")
        h.get("v1")  # observed after put(v2) responded: stale
        outcome = check_operations(h.ops())
        assert not outcome.ok
        assert outcome.witness is not None

    def test_lost_write_detected(self, h):
        h.put("v1")
        h.cas("v1", "v2", {"ok": True})
        h.get("v1")  # cas succeeded, then vanished
        assert not check_operations(h.ops()).ok

    def test_unhashable_register_values_supported(self, h):
        # Platform clients store dicts (job docs) in etcd; the model
        # compares them by value and hashes a frozen form internally.
        h.put({"status": "RUNNING", "n": 1})
        h.get({"n": 1, "status": "RUNNING"})  # equal, different order
        outcome = check_operations(h.ops(), collect_final=True)
        assert outcome.ok
        assert outcome.final_states == ({"status": "RUNNING", "n": 1},)
        h.get({"status": "FAILED", "n": 1})
        assert not check_operations(h.ops()).ok

    def test_initial_states_constrain_the_first_op(self, h):
        h.get("carried")
        assert not check_operations(h.ops()).ok
        assert check_operations(h.ops(), initial_states=("carried",)).ok
        assert check_operations(h.ops(),
                                initial_states=(None, "carried")).ok


class TestConcurrency:
    def test_concurrent_puts_allow_either_order(self, h):
        a = h.invoke("c1", "put", args="v1")
        b = h.invoke("c2", "put", args="v2")
        h.tick()
        h.history.complete(a, {"ok": True})
        h.tick()
        h.history.complete(b, {"ok": True})
        h.get("v1", client="c3")  # b linearizes first, then a
        assert check_operations(h.ops()).ok

    def test_non_overlapping_order_is_enforced(self, h):
        # Same ops, but strictly sequential: put(v2) cannot move
        # before put(v1) anymore, so a later get(v1) is stale.
        h.put("v1", client="c1")
        h.put("v2", client="c2")
        h.get("v1", client="c3")
        assert not check_operations(h.ops()).ok

    def test_read_concurrent_with_write_sees_either_value(self, h):
        h.put("v1")
        w = h.invoke("c1", "put", args="v2")
        r1 = h.invoke("c2", "get")
        h.tick()
        h.history.complete(r1, "v1")  # before the write applied
        r2 = h.invoke("c3", "get")
        h.tick()
        h.history.complete(r2, "v2")  # after it applied
        h.tick()
        h.history.complete(w, {"ok": True})
        assert check_operations(h.ops()).ok


class TestMaybeApplied:
    def test_info_write_may_apply(self, h):
        h.put("v1")
        h.op("c2", "put", args="v2", status="info")
        h.get("v2")  # only explicable if the lost write applied
        assert check_operations(h.ops()).ok

    def test_info_write_may_never_apply(self, h):
        h.put("v1")
        h.op("c2", "put", args="v2", status="info")
        h.get("v1")
        h.get("v1")
        assert check_operations(h.ops()).ok

    def test_info_write_cannot_unapply(self, h):
        h.put("v1")
        h.op("c2", "put", args="v2", status="info")
        h.get("v2")
        h.get("v1")  # v2 observed, then v1 again with no writer: stale
        assert not check_operations(h.ops()).ok

    def test_info_cas_transitions_conditionally(self, h):
        h.put("v1")
        h.op("c2", "cas", args=("v1", "v2"), status="info")
        h.get("v2")
        assert check_operations(h.ops()).ok

    def test_failed_ops_constrain_nothing(self, h):
        h.put("v1")
        h.op("c2", "put", args="v9", status="fail")
        h.get("v1")
        outcome = check_operations(h.ops())
        assert outcome.ok
        assert outcome.ops_considered == 2  # the fail was dropped

    def test_indeterminate_reads_are_dropped(self, h):
        h.put("v1")
        h.invoke("c2", "get")  # never completes
        h.op("c3", "get", status="info")
        h.get("v1")
        outcome = check_operations(h.ops())
        assert outcome.ok
        assert outcome.ops_considered == 2


class TestFinalStates:
    def test_collect_final_enumerates_end_states(self, h):
        h.put("v1")
        a = h.invoke("c1", "put", args="v2")
        b = h.invoke("c2", "put", args="v3")
        h.tick()
        h.history.complete(a, {"ok": True})
        h.tick()
        h.history.complete(b, {"ok": True})
        outcome = check_operations(h.ops(), collect_final=True)
        assert outcome.ok
        assert set(outcome.final_states) == {"v2", "v3"}

    def test_collect_final_requires_all_ok(self, h):
        h.put("v1")
        h.op("c2", "put", args="v2", status="info")
        with pytest.raises(ValueError):
            check_operations(h.ops(), collect_final=True)

    def test_collect_final_empty_segment_keeps_initials(self):
        outcome = check_operations([], initial_states=("a", "b"),
                                   collect_final=True)
        assert outcome.ok
        assert set(outcome.final_states) == {"a", "b"}


class TestBudgetAndWitness:
    def test_budget_exceeded_raises(self, h):
        # Many pairwise-concurrent maybe-applied writes: the config
        # space explodes and must hit the cap instead of hanging.
        pending = [h.invoke(f"c{i}", "put", args=f"v{i}")
                   for i in range(12)]
        h.tick()
        for record in pending:
            h.history.info(record)
        h.get("v0", client="r")
        with pytest.raises(CheckBudgetExceeded):
            check_operations(h.ops(), max_configs=50)

    def test_witness_is_minimized(self, h):
        h.put("v1")
        h.put("v2")
        h.get("v0")  # a value nobody ever wrote
        outcome = check_operations(h.ops())
        assert not outcome.ok
        # The impossible get alone suffices; both puts drop out.
        assert len(outcome.witness["ops"]) == 1
        assert outcome.witness["ops"][0]["op"] == "get"

    def test_minimize_can_be_disabled(self, h, monkeypatch):
        monkeypatch.setattr(checker, "MINIMIZE", False)
        h.put("v1")
        h.put("v2")
        h.get("v0")
        outcome = check_operations(h.ops())
        assert not outcome.ok
        assert len(outcome.witness["ops"]) == 3

    def test_witness_reports_prefix_and_stuck_reason(self, h, monkeypatch):
        monkeypatch.setattr(checker, "MINIMIZE", False)
        h.put("v1")
        h.put("v2")
        h.get("v1")
        outcome = check_operations(h.ops())
        witness = outcome.witness
        assert witness["key"] == "/k"
        assert len(witness["linearized"]) == 2
        assert witness["final_state"] == "v2"
        assert witness["stuck"]
        assert "observed" in witness["stuck"][0]["reason"]

    def test_render_witness_smoke(self, h):
        h.put("v1")
        h.put("v2")
        h.get("v1")
        text = render_witness(check_operations(h.ops()).witness)
        assert "linearizability violation" in text
        assert "'/k'" in text
        assert "no remaining operation can linearize next" in text


class TestCheckHistory:
    def test_multiple_keys_checked_independently(self, h):
        h.put("a1", key="/a")
        h.get("a1", key="/a")
        h.put("b1", key="/b")
        h.put("b2", key="/b")
        h.get("b1", key="/b")  # stale
        result = check_history(h.history)
        assert not result.ok
        assert result.keys_checked == 2
        assert result.ops_checked == 5
        assert [w["key"] for w in result.violations] == ["/b"]

    def test_unauditable_keys_are_skipped(self, h):
        h.put("b1", key="/b")
        h.put("b2", key="/b")
        h.get("b1", key="/b")  # stale, but out of model scope
        h.history.mark_leased("/b")
        result = check_history(h.history)
        assert result.ok
        assert result.keys_checked == 0
