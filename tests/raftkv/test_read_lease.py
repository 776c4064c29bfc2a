"""Read-lease (check-quorum) reads, the ``stale_reads`` seeded bug,
and duplicate-apply accounting for retried client mutations."""

import pytest

from repro.grpcnet import LatencyModel, Network
from repro.raftkv import EtcdClient, EtcdCluster, NotLeader
from repro.raftkv import node as raft
from repro.core.events import EventRecorder
from repro.sim import Kernel, MetricsRegistry


def make_cluster(size=3, seed=7, metrics=None):
    kernel = Kernel(seed=seed)
    metrics = metrics or MetricsRegistry()
    network = Network(kernel, metrics,
                      latency=LatencyModel(base=0.002, jitter=0.002))
    cluster = EtcdCluster(kernel, network, metrics,
                          EventRecorder(kernel, metrics), size=size).start()
    return kernel, network, cluster


def run(kernel, generator, limit=None):
    return kernel.run_until_complete(kernel.spawn(generator), limit=limit)


def isolate(network, cluster, node_id):
    for other in cluster.node_ids:
        if other != node_id:
            network.partition(node_id, other)


def elect_and_write(kernel, network, cluster, key="/k", value="v1"):
    client = EtcdClient(kernel, network, cluster)

    def scenario():
        yield from cluster.wait_for_leader()
        yield from client.put(key, value)

    run(kernel, scenario())
    return cluster.leader()


class TestReadLease:
    def test_stable_leader_serves_reads(self):
        kernel, network, cluster = make_cluster()
        leader = elect_and_write(kernel, network, cluster)
        assert leader._read_lease_valid()
        assert leader._on_read({"key": "/k"})["value"] == "v1"

    def test_single_node_cluster_always_holds_the_lease(self):
        kernel, network, cluster = make_cluster(size=1)
        leader = elect_and_write(kernel, network, cluster)
        assert leader._read_lease_valid()

    def test_isolated_leader_loses_the_lease(self):
        kernel, network, cluster = make_cluster()
        leader = elect_and_write(kernel, network, cluster)
        isolate(network, cluster, leader.node_id)
        # Once election_min passes with no peer acks, the lease is
        # gone: the old leader must step out of the read path even
        # though it still believes it leads.
        kernel.run(until=kernel.now + 2 * raft.ELECTION_MIN)
        assert not leader._read_lease_valid()
        with pytest.raises(NotLeader) as excinfo:
            leader._on_read({"key": "/k"})
        # No hint: the deposed leader genuinely does not know who leads.
        assert excinfo.value.leader_hint is None
        with pytest.raises(NotLeader):
            leader._on_range({"prefix": "/"})

    def test_deposed_leader_would_serve_stale_value_without_lease(self):
        kernel, network, cluster = make_cluster()
        leader = elect_and_write(kernel, network, cluster)
        isolate(network, cluster, leader.node_id)
        client = EtcdClient(kernel, network, cluster, client_id="writer")

        def newer_write():
            # The majority side elects a replacement and commits v2
            # while the old leader still holds v1.
            deadline = kernel.now + 10.0
            while kernel.now < deadline:
                new = cluster.leader()
                if new is not None and new.node_id != leader.node_id \
                        and new.current_term > leader.current_term:
                    break
                yield kernel.sleep(0.05)
            yield from client.put("/k", "v2")

        run(kernel, newer_write())
        kernel.run(until=kernel.now + 2 * raft.ELECTION_MIN)
        assert leader.is_leader  # still *believes* it leads
        assert leader.state_machine.data.get("/k") == "v1"  # stale state
        # Lease on: the stale copy is unreachable through the read path.
        with pytest.raises(NotLeader):
            leader._on_read({"key": "/k"})
        # Seeded bug on: the same read happily returns the stale value.
        leader.stale_reads = True
        assert leader._on_read({"key": "/k"})["value"] == "v1"

    def test_lease_recovers_after_heal(self):
        kernel, network, cluster = make_cluster()
        leader = elect_and_write(kernel, network, cluster)
        isolate(network, cluster, leader.node_id)
        kernel.run(until=kernel.now + 2 * raft.ELECTION_MIN)
        assert not leader._read_lease_valid()
        for other in cluster.node_ids:
            if other != leader.node_id:
                network.heal(leader.node_id, other)
        kernel.run(until=kernel.now + 2.0)
        current = cluster.leader()
        assert current is not None
        assert current._read_lease_valid()
        assert current._on_read({"key": "/k"})["value"] == "v1"


class TestDuplicateApplies:
    def test_replayed_mutation_is_deduplicated_and_counted(self):
        metrics = MetricsRegistry()
        kernel, network, cluster = make_cluster(metrics=metrics)
        client = EtcdClient(kernel, network, cluster, client_id="c1")

        def scenario():
            leader = yield from cluster.wait_for_leader()
            first = yield from client.put("/k", "v1")
            # Replay the exact command a retrying client would resend
            # after losing the response: same (client_id, seq) tag.
            replay = {"op": "put", "key": "/k", "value": "v1",
                      "client_id": "c1", "seq": client._seq}
            second = yield network.call(
                leader.node_id, "propose", replay, deadline=2.0,
                caller="c1")
            return leader, first, second

        leader, first, second = run(kernel, scenario())
        # The session table swallowed the duplicate and replayed the
        # cached result instead of mutating the store twice.
        assert second == first
        assert leader.state_machine.duplicate_applies == 1
        child = metrics.counter(
            "raft_duplicate_applies_total", ("node",)
        ).labels(node=leader.node_id)
        assert child.value == 1.0

    def test_fresh_mutations_are_not_counted(self):
        metrics = MetricsRegistry()
        kernel, network, cluster = make_cluster(metrics=metrics)
        client = EtcdClient(kernel, network, cluster, client_id="c1")

        def scenario():
            yield from cluster.wait_for_leader()
            yield from client.put("/k", "v1")
            yield from client.put("/k", "v2")

        run(kernel, scenario())
        assert all(node.state_machine.duplicate_applies == 0
                   for node in cluster.nodes.values())

    def test_ops_carry_distinct_op_ids_across_clients(self):
        kernel, network, cluster = make_cluster()
        from repro.audit import HistoryRecorder
        history = HistoryRecorder(kernel)
        a = EtcdClient(kernel, network, cluster, client_id="a",
                       history=history)
        b = EtcdClient(kernel, network, cluster, client_id="b",
                       history=history)

        def scenario():
            yield from cluster.wait_for_leader()
            yield from a.put("/k", "v1")
            yield from b.put("/k", "v2")
            yield from a.get("/k")

        run(kernel, scenario())
        ops = history.ops_for_key("/k")
        assert [(o.client, o.op_id) for o in ops] == \
            [("a", 1), ("b", 1), ("a", 2)]
        assert all(o.status == "ok" and o.attempts >= 1 for o in ops)
