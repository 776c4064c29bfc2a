"""Unit tests for the KV state machine."""

import pytest

from repro.raftkv import KvStateMachine, WatchHub
from repro.sim import Kernel


@pytest.fixture
def sm():
    return KvStateMachine()


class TestPutGetDelete:
    def test_put_and_get(self, sm):
        result = sm.apply({"op": "put", "key": "a", "value": 1})
        assert result["ok"]
        assert sm.data.get("a") == 1

    def test_revision_increments(self, sm):
        r1 = sm.apply({"op": "put", "key": "a", "value": 1})["revision"]
        r2 = sm.apply({"op": "put", "key": "a", "value": 2})["revision"]
        assert r2 == r1 + 1

    def test_delete(self, sm):
        sm.apply({"op": "put", "key": "a", "value": 1})
        result = sm.apply({"op": "delete", "key": "a"})
        assert result["deleted"] == 1
        assert sm.data.get("a") is None

    def test_delete_missing_is_ok(self, sm):
        result = sm.apply({"op": "delete", "key": "ghost"})
        assert result["ok"] and result["deleted"] == 0

    def test_delete_prefix(self, sm):
        for key in ("jobs/1/s0", "jobs/1/s1", "jobs/2/s0"):
            sm.apply({"op": "put", "key": key, "value": "x"})
        result = sm.apply({"op": "delete_prefix", "prefix": "jobs/1/"})
        assert result["deleted"] == 2
        assert sm.data.get("jobs/2/s0") == "x"

    def test_range_sorted(self, sm):
        sm.apply({"op": "put", "key": "b", "value": 2})
        sm.apply({"op": "put", "key": "a", "value": 1})
        assert sm.range("") == [("a", 1), ("b", 2)]

    def test_get_with_revision(self, sm):
        assert sm.get_with_revision("missing") == (None, 0)
        sm.apply({"op": "put", "key": "a", "value": 1})
        value, revision = sm.get_with_revision("a")
        assert value == 1 and revision == 1


class TestCas:
    def test_cas_success(self, sm):
        sm.apply({"op": "put", "key": "a", "value": 1})
        result = sm.apply({"op": "cas", "key": "a", "expected": 1, "value": 2})
        assert result["ok"]
        assert sm.data.get("a") == 2

    def test_cas_failure_keeps_value(self, sm):
        sm.apply({"op": "put", "key": "a", "value": 1})
        result = sm.apply({"op": "cas", "key": "a", "expected": 99, "value": 2})
        assert not result["ok"]
        assert result["actual"] == 1
        assert sm.data.get("a") == 1

    def test_cas_on_missing_key(self, sm):
        result = sm.apply({"op": "cas", "key": "a", "expected": None, "value": 1})
        assert result["ok"]
        assert sm.data.get("a") == 1


class TestSessions:
    def test_duplicate_seq_returns_cached_result(self, sm):
        cmd = {"op": "put", "key": "a", "value": 1, "client_id": "c", "seq": 1}
        r1 = sm.apply(cmd)
        r2 = sm.apply(cmd)  # retried duplicate
        assert r1 == r2
        assert sm.revision == 1  # applied exactly once

    def test_old_seq_does_not_reapply(self, sm):
        sm.apply({"op": "put", "key": "a", "value": 1, "client_id": "c", "seq": 1})
        sm.apply({"op": "put", "key": "a", "value": 2, "client_id": "c", "seq": 2})
        sm.apply({"op": "put", "key": "a", "value": 1, "client_id": "c", "seq": 1})
        assert sm.data.get("a") == 2

    def test_distinct_clients_independent(self, sm):
        sm.apply({"op": "put", "key": "a", "value": 1, "client_id": "c1", "seq": 1})
        sm.apply({"op": "put", "key": "a", "value": 2, "client_id": "c2", "seq": 1})
        assert sm.data.get("a") == 2


class TestLeases:
    def test_grant_and_attach(self, sm):
        sm.apply({"op": "lease_grant", "lease_id": "L1", "ttl": 5.0, "now": 0.0})
        sm.apply({"op": "put", "key": "a", "value": 1, "lease": "L1"})
        assert "a" in sm.leases["L1"]["keys"]

    def test_put_with_unknown_lease_fails(self, sm):
        result = sm.apply({"op": "put", "key": "a", "value": 1, "lease": "nope"})
        assert not result["ok"]
        assert sm.data.get("a") is None

    def test_expiry_deletes_keys(self, sm):
        sm.apply({"op": "lease_grant", "lease_id": "L1", "ttl": 5.0, "now": 0.0})
        sm.apply({"op": "put", "key": "a", "value": 1, "lease": "L1"})
        result = sm.apply({"op": "lease_expire", "lease_id": "L1", "now": 5.0})
        assert result["deleted"] == 1
        assert sm.data.get("a") is None

    def test_expire_respects_keepalive(self, sm):
        sm.apply({"op": "lease_grant", "lease_id": "L1", "ttl": 5.0, "now": 0.0})
        sm.apply({"op": "lease_keepalive", "lease_id": "L1", "now": 4.0})
        result = sm.apply({"op": "lease_expire", "lease_id": "L1", "now": 6.0})
        assert not result["ok"]  # refreshed to expire at 9.0
        result = sm.apply({"op": "lease_expire", "lease_id": "L1", "now": 9.5})
        assert result["ok"]
        assert "L1" not in sm.leases

    def test_keepalive_unknown_lease(self, sm):
        result = sm.apply({"op": "lease_keepalive", "lease_id": "nope", "now": 0.0})
        assert not result["ok"]


class TestDeterminism:
    def test_replay_reaches_identical_state(self):
        commands = [
            {"op": "put", "key": "a", "value": 1},
            {"op": "put", "key": "b", "value": 2},
            {"op": "cas", "key": "a", "expected": 1, "value": 3},
            {"op": "delete", "key": "b"},
            {"op": "lease_grant", "lease_id": "L", "ttl": 2.0, "now": 0.0},
            {"op": "put", "key": "c", "value": 9, "lease": "L"},
            {"op": "lease_expire", "lease_id": "L", "now": 3.0},
        ]
        first, second = KvStateMachine(), KvStateMachine()
        for cmd in commands:
            first.apply(dict(cmd))
            second.apply(dict(cmd))
        assert first.data == second.data
        assert first.revision == second.revision


class TestWatchDispatch:
    def test_prefix_watch_sees_puts_and_deletes(self):
        kernel = Kernel(seed=0)
        hub = WatchHub(kernel)
        sm = KvStateMachine(watch_hub=hub)
        watch = hub.add("jobs/")
        sm.apply({"op": "put", "key": "jobs/1", "value": "x"})
        sm.apply({"op": "put", "key": "other", "value": "y"})
        sm.apply({"op": "delete", "key": "jobs/1"})
        events = []
        while len(watch.channel):
            events.append(watch.channel.get_nowait())
        assert [(e.type, e.key) for e in events] == [("put", "jobs/1"), ("delete", "jobs/1")]

    def test_cancel_stops_delivery(self):
        kernel = Kernel(seed=0)
        hub = WatchHub(kernel)
        sm = KvStateMachine(watch_hub=hub)
        watch = hub.add("")
        watch.cancel()
        sm.apply({"op": "put", "key": "a", "value": 1})
        assert watch.channel.closed

    def test_unknown_op_rejected(self, sm):
        with pytest.raises(Exception):
            sm.apply({"op": "frobnicate"})
