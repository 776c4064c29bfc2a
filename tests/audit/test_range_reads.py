"""Range reads are audited: one ``get`` observation per key returned,
one observing ``None`` per key the caller names as read-absent, all
sharing the call's invocation point.

The Guardian reads its job's whole etcd prefix in one ``get_range``
(DESIGN.md "A status pass is one snapshot"); if that call escaped the
recorder, the monitor's reads would leave the Wing & Gong checker with
the point ``get``s they replaced.
"""

import pytest

from repro.audit import ConsistencyAuditor, HistoryRecorder, check_history
from repro.audit.checker import render_witness
from repro.grpcnet import LatencyModel, Network
from repro.raftkv import EtcdClient, EtcdCluster
from repro.sim import Kernel


class FakeKernel:
    def __init__(self):
        self.now = 0.0


@pytest.fixture
def history():
    return HistoryRecorder(FakeKernel())


def put(history, key, value, client="writer"):
    record = history.invoke(client, "put", key, value)
    history.kernel.now += 1.0
    history.complete(record, {"ok": True})
    return record


class TestRecording:
    def test_one_get_per_key_returned_plus_the_named_absent(self, history):
        token = history.invoke_range("/j/")
        history.kernel.now = 2.0
        history.complete_range(token, "reader", 7,
                               [("/j/a", 1), ("/j/b", 2)],
                               also=("/j/b", "/j/halt"))
        records = history.records
        assert [(r.op, r.key, r.result) for r in records] == [
            ("get", "/j/a", 1), ("get", "/j/b", 2), ("get", "/j/halt", None)]
        assert {r.status for r in records} == {"ok"}
        assert {r.client for r in records} == {"reader"}
        assert {r.op_id for r in records} == {7}
        # One invocation point, taken when the call was made; all
        # completed when it returned.
        assert {(r.invoke_seq, r.invoke_time) for r in records} == {(0, 0.0)}
        assert {r.response_time for r in records} == {2.0}
        assert all(r.response_seq > r.invoke_seq for r in records)

    def test_a_failed_range_read_records_nothing(self, history):
        token = history.invoke_range("/j/")
        assert history.range_pending("/j/a")
        history.complete_range(token, "reader", 1, None, also=("/j/halt",))
        assert len(history) == 0
        assert not history.range_pending("/j/a")

    def test_pending_covers_the_prefix_only(self, history):
        history.invoke_range("/j/")
        assert history.range_pending("/j/learners/0")
        assert not history.range_pending("/other")
        assert not history.range_pending("/j")

    def test_observations_are_filed_in_invocation_order(self, history):
        token = history.invoke_range("/j/")
        later = history.invoke("writer", "put", "/j/a", "v2")
        history.complete(later, {"ok": True})
        history.complete_range(token, "reader", 1, [("/j/a", "v1")])
        ops = history.ops_for_key("/j/a")
        assert [r.op for r in ops] == ["get", "put"]
        assert [r.invoke_seq for r in ops] == sorted(r.invoke_seq for r in ops)


class TestAuditing:
    def test_a_key_under_a_pending_range_waits_a_pass(self, history):
        """The range was invoked while ``v1`` stood and returns it after
        ``v2`` was written and audited. Compacting ``/j/a`` while the
        range was in flight would have filed the read behind the cut
        and called it stale."""
        auditor = ConsistencyAuditor(history.kernel, history)
        put(history, "/j/a", "v1")
        token = history.invoke_range("/j/")
        put(history, "/j/a", "v2")
        put(history, "/other", "x")
        assert auditor.audit_once() == 1  # only /other
        history.complete_range(token, "reader", 1, [("/j/a", "v1")])
        assert auditor.audit_once() == 3
        assert auditor.ok

    def test_a_stale_range_observation_is_flagged(self, history):
        auditor = ConsistencyAuditor(history.kernel, history)
        put(history, "/j/a", "v1")
        put(history, "/j/a", "v2")
        token = history.invoke_range("/j/")
        history.complete_range(token, "reader", 1, [("/j/a", "v1")])
        auditor.audit_once()
        assert [w["key"] for w in auditor.violations] == ["/j/a"]

    def test_a_named_absent_key_that_was_written_is_flagged(self, history):
        auditor = ConsistencyAuditor(history.kernel, history)
        put(history, "/j/halt", True)
        token = history.invoke_range("/j/")
        history.complete_range(token, "reader", 1, [], also=("/j/halt",))
        auditor.audit_once()
        assert [w["key"] for w in auditor.violations] == ["/j/halt"]


def isolate(network, cluster, node_id):
    for other in cluster.node_ids:
        if other != node_id:
            network.partition(node_id, other)


class TestSeededStaleLeader:
    """``stale_reads`` disables the read lease on every node. A deposed
    leader then serves its frozen state to a *range* read after newer
    writes completed elsewhere: the recorded history is not
    linearizable and the checker says where."""

    def scenario(self, stale_reads):
        kernel = Kernel(seed=7)
        network = Network(kernel,
                          latency=LatencyModel(base=0.002, jitter=0.002))
        cluster = EtcdCluster(kernel, network, size=3).start()
        for node_id in cluster.node_ids:
            cluster.node(node_id).stale_reads = stale_reads
        history = HistoryRecorder(kernel)
        writer = EtcdClient(kernel, network, cluster, client_id="writer",
                            history=history)
        reader = EtcdClient(kernel, network, cluster, client_id="reader",
                            history=history)

        def run():
            yield from cluster.wait_for_leader()
            yield from writer.put("/j/learners/0", "PROCESSING")
            old_leader = cluster.leader().node_id
            isolate(network, cluster, old_leader)
            deadline = kernel.now + 10.0
            while kernel.now < deadline:
                leader = cluster.leader()
                if leader is not None and leader.node_id != old_leader \
                        and leader.is_leader:
                    break
                yield kernel.sleep(0.05)
            yield from writer.put("/j/learners/0", "COMPLETED")
            yield from writer.put("/j/halt", True)
            # The reader's hint still points at the deposed leader.
            reader._leader_hint = old_leader
            return (yield from reader.get_range("/j/", also=("/j/halt",)))

        kvs = kernel.run_until_complete(kernel.spawn(run()), limit=100_000)
        return kvs, history

    def test_caught_with_a_witness_through_a_range_read(self):
        kvs, history = self.scenario(stale_reads=True)
        assert kvs == [("/j/learners/0", "PROCESSING")]  # frozen state
        result = check_history(history)
        assert not result.ok
        assert sorted(w["key"] for w in result.violations) == [
            "/j/halt", "/j/learners/0"]
        witness = next(w for w in result.violations
                       if w["key"] == "/j/learners/0")
        stuck = [entry["op"] for entry in witness["stuck"]]
        assert [(op["client"], op["op"], op["observed"]) for op in stuck] \
            == [("reader", "get", "PROCESSING")]
        assert "get observed 'PROCESSING'" in render_witness(witness)

    def test_the_lease_keeps_the_same_range_read_linearizable(self):
        kvs, history = self.scenario(stale_reads=False)
        assert kvs == [("/j/halt", True), ("/j/learners/0", "COMPLETED")]
        assert check_history(history).ok
