"""Raft edge cases: stale leaders, vote rules, read safety, churn."""

import pytest

from repro.grpcnet import LatencyModel, Network
from repro.raftkv import (
    EtcdClient,
    NoLeader,
    RequestVote,
)
from repro.raftkv import node as raft
from repro.sim import Kernel, MetricsRegistry

from ..observers import etcd_cluster
from .oracles import logs_consistent


def make_cluster(size=3, seed=21):
    kernel = Kernel(seed=seed)
    network = Network(kernel, MetricsRegistry(),
                      latency=LatencyModel(base=0.002, jitter=0.002))
    cluster = etcd_cluster(kernel, network, size=size).start()
    return kernel, network, cluster


class TestVoteRules:
    def test_stale_term_vote_rejected(self):
        kernel, _network, cluster = make_cluster()
        kernel.run(until=2.0)
        node = cluster.leader()
        reply = node._on_request_vote(RequestVote(
            term=0, candidate_id="intruder", last_log_index=99, last_log_term=99,
        ))
        assert not reply.vote_granted
        assert reply.term == node.current_term

    def test_vote_denied_to_stale_log(self):
        kernel, network, cluster = make_cluster()
        client = EtcdClient(kernel, network, cluster)

        def write():
            yield from cluster.wait_for_leader()
            for i in range(5):
                yield from client.put(f"k{i}", i)

        kernel.run_until_complete(kernel.spawn(write()), limit=60)
        kernel.run(until=kernel.now + 1.0)
        follower = next(n for n in cluster.nodes.values() if not n.is_leader)
        reply = follower._on_request_vote(RequestVote(
            term=follower.current_term + 10, candidate_id="stale",
            last_log_index=0, last_log_term=0,
        ))
        assert not reply.vote_granted

    def test_single_vote_per_term(self):
        kernel, _network, cluster = make_cluster()
        kernel.run(until=2.0)
        follower = next(n for n in cluster.nodes.values() if not n.is_leader)
        term = follower.current_term + 1
        first = follower._on_request_vote(RequestVote(
            term=term, candidate_id="cand-a",
            last_log_index=follower.log.last_index + 5,
            last_log_term=follower.current_term + 1,
        ))
        second = follower._on_request_vote(RequestVote(
            term=term, candidate_id="cand-b",
            last_log_index=follower.log.last_index + 5,
            last_log_term=follower.current_term + 1,
        ))
        assert first.vote_granted
        assert not second.vote_granted


class TestStaleLeader:
    def test_deposed_leader_rejects_writes(self):
        kernel, network, cluster = make_cluster()
        kernel.run(until=2.0)
        old_leader = cluster.leader()
        others = [n for n in cluster.node_ids if n != old_leader.node_id]
        for other in others:
            network.partition(old_leader.node_id, other)
        kernel.run(until=6.0)  # majority side elects a new leader
        new_leader = cluster.leader()
        assert new_leader.node_id != old_leader.node_id
        network.heal_all()
        kernel.run(until=kernel.now + 2.0)
        # The old leader stepped down on seeing the higher term.
        assert not old_leader.is_leader
        assert old_leader.current_term >= new_leader.current_term - 1

    def test_read_from_deposed_leader_redirects(self):
        kernel, network, cluster = make_cluster()
        client = EtcdClient(kernel, network, cluster)

        def scenario():
            yield from cluster.wait_for_leader()
            yield from client.put("k", "v")
            old = cluster.leader()
            old.crash()
            yield from cluster.wait_for_leader()
            old.restart()
            yield kernel.sleep(2.0)
            # Client hinted at the old leader still gets the right answer.
            client._leader_hint = old.node_id
            value = yield from client.get("k")
            return value

        assert kernel.run_until_complete(kernel.spawn(scenario()), limit=120) == "v"


class TestChurn:
    def test_rolling_restarts_preserve_data(self):
        kernel, network, cluster = make_cluster()
        client = EtcdClient(kernel, network, cluster)

        def scenario():
            yield from cluster.wait_for_leader()
            for index, node_id in enumerate(cluster.node_ids):
                yield from client.put(f"round-{index}", index)
                cluster.crash(node_id)
                yield kernel.sleep(1.0)
                cluster.restart(node_id)
                yield kernel.sleep(2.0)
            values = []
            for index in range(len(cluster.node_ids)):
                values.append((yield from client.get(f"round-{index}")))
            return values

        values = kernel.run_until_complete(kernel.spawn(scenario()), limit=300)
        assert values == [0, 1, 2]
        assert logs_consistent(cluster)

    def test_client_exhausts_attempts_without_quorum(self):
        kernel, network, cluster = make_cluster()
        kernel.run(until=2.0)
        for node_id in cluster.node_ids[:2]:
            cluster.crash(node_id)
        client = EtcdClient(kernel, network, cluster, max_attempts=3)
        client.retry_delay = 0.05

        def scenario():
            yield from client.put("k", "v")

        with pytest.raises(NoLeader):
            kernel.run_until_complete(kernel.spawn(scenario()), limit=120)


class TestTimings:
    def test_invalid_timings_rejected(self):
        # A non-empty election range, well above the heartbeat.
        assert 0 < raft.ELECTION_MIN < raft.ELECTION_MAX
        assert raft.HEARTBEAT < raft.ELECTION_MIN

    def test_five_node_cluster_tolerates_two_failures(self):
        kernel, network, cluster = make_cluster(size=5)
        client = EtcdClient(kernel, network, cluster)

        def scenario():
            yield from cluster.wait_for_leader()
            yield from client.put("before", 1)
            cluster.crash(cluster.node_ids[0])
            cluster.crash(cluster.node_ids[1])
            yield from cluster.wait_for_leader()
            yield from client.put("after", 2)
            a = yield from client.get("before")
            b = yield from client.get("after")
            return a, b

        assert kernel.run_until_complete(kernel.spawn(scenario()), limit=120) == (1, 2)


class TestLossyNetwork:
    def test_raft_commits_despite_message_loss(self):
        # 5% message loss: elections and replication retry through it.
        kernel = Kernel(seed=55)
        network = Network(kernel, MetricsRegistry(),
                          latency=LatencyModel(base=0.002, jitter=0.002))
        cluster = etcd_cluster(kernel, network).start()
        for node_id in cluster.node_ids:
            network.degrade(node_id, loss=0.05)
        client = EtcdClient(kernel, network, cluster)

        def scenario():
            yield from cluster.wait_for_leader()
            for i in range(30):
                yield from client.put(f"k{i % 6}", i)
            values = []
            for j in range(6):
                values.append((yield from client.get(f"k{j}")))
            return values

        values = kernel.run_until_complete(kernel.spawn(scenario()), limit=600)
        assert values == [24, 25, 26, 27, 28, 29]
        kernel.run(until=kernel.now + 3.0)
        assert logs_consistent(cluster)
