"""Integration tests for Raft consensus: elections, replication, crashes."""

import pytest

from repro.grpcnet import LatencyModel, Network
from repro.raftkv import EtcdClient, EtcdCluster, LEADER
from repro.sim import Kernel


def make_cluster(size=3, seed=7):
    kernel = Kernel(seed=seed)
    network = Network(kernel, latency=LatencyModel(base=0.002, jitter=0.002))
    cluster = EtcdCluster(kernel, network, size=size).start()
    return kernel, network, cluster


def run(kernel, generator, limit=None):
    return kernel.run_until_complete(kernel.spawn(generator), limit=limit)


class TestElections:
    def test_single_leader_elected(self):
        kernel, _network, cluster = make_cluster()
        kernel.run(until=2.0)
        leaders = [n for n in cluster.nodes.values() if n.role == LEADER]
        assert len(leaders) == 1

    def test_single_node_cluster_becomes_leader(self):
        kernel, _network, cluster = make_cluster(size=1)
        kernel.run(until=1.0)
        assert cluster.leader() is not None

    def test_new_leader_after_leader_crash(self):
        kernel, _network, cluster = make_cluster()
        kernel.run(until=2.0)
        old = cluster.crash_leader()
        assert old is not None
        kernel.run(until=4.0)
        new = cluster.leader()
        assert new is not None
        assert new.node_id != old.node_id

    def test_no_leader_without_majority(self):
        kernel, _network, cluster = make_cluster()
        kernel.run(until=2.0)
        ids = cluster.node_ids
        cluster.crash(ids[0])
        cluster.crash(ids[1])
        kernel.run(until=6.0)
        assert cluster.leader() is None

    def test_leader_restored_when_majority_returns(self):
        kernel, _network, cluster = make_cluster()
        kernel.run(until=2.0)
        ids = cluster.node_ids
        cluster.crash(ids[0])
        cluster.crash(ids[1])
        kernel.run(until=4.0)
        cluster.restart(ids[0])
        kernel.run(until=8.0)
        assert cluster.leader() is not None

    def test_terms_monotonic_across_elections(self):
        kernel, _network, cluster = make_cluster()
        kernel.run(until=2.0)
        term1 = cluster.leader().current_term
        cluster.crash_leader()
        kernel.run(until=5.0)
        assert cluster.leader().current_term > term1


class TestReplication:
    def test_put_then_get(self):
        kernel, network, cluster = make_cluster()
        client = EtcdClient(kernel, network, cluster)

        def scenario():
            yield from cluster.wait_for_leader()
            yield from client.put("greeting", "hello")
            value = yield from client.get("greeting")
            return value

        assert run(kernel, scenario()) == "hello"

    def test_writes_replicated_to_all_nodes(self):
        kernel, network, cluster = make_cluster()
        client = EtcdClient(kernel, network, cluster)

        def scenario():
            yield from cluster.wait_for_leader()
            for i in range(10):
                yield from client.put(f"k{i}", i)

        run(kernel, scenario())
        kernel.run(until=kernel.now + 1.0)  # let followers apply
        for node in cluster.nodes.values():
            assert node.state_machine.get("k5") == 5

    def test_cas_through_consensus(self):
        kernel, network, cluster = make_cluster()
        client = EtcdClient(kernel, network, cluster)

        def scenario():
            yield from cluster.wait_for_leader()
            yield from client.put("lock", "free")
            first = yield from client.cas("lock", "free", "held")
            second = yield from client.cas("lock", "free", "held")
            return first["ok"], second["ok"]

        assert run(kernel, scenario()) == (True, False)

    def test_follower_redirects_to_leader(self):
        kernel, network, cluster = make_cluster()
        client = EtcdClient(kernel, network, cluster)

        def scenario():
            leader = yield from cluster.wait_for_leader()
            follower = next(n for n in cluster.node_ids if n != leader.node_id)
            client._leader_hint = follower  # force first attempt at follower
            yield from client.put("via-follower", 1)
            value = yield from client.get("via-follower")
            return value

        assert run(kernel, scenario()) == 1

    def test_logs_consistent_after_workload(self):
        kernel, network, cluster = make_cluster()
        client = EtcdClient(kernel, network, cluster)

        def scenario():
            yield from cluster.wait_for_leader()
            for i in range(20):
                yield from client.put(f"key-{i % 5}", i)

        run(kernel, scenario())
        kernel.run(until=kernel.now + 1.0)
        assert cluster.logs_consistent()
        assert cluster.applied_states_agree()


class TestCrashRecovery:
    def test_data_survives_leader_crash(self):
        kernel, network, cluster = make_cluster()
        client = EtcdClient(kernel, network, cluster)

        def scenario():
            yield from cluster.wait_for_leader()
            yield from client.put("durable", "yes")
            cluster.crash_leader()
            yield from cluster.wait_for_leader()
            value = yield from client.get("durable")
            return value

        assert run(kernel, scenario()) == "yes"

    def test_writes_continue_after_leader_crash(self):
        kernel, network, cluster = make_cluster()
        client = EtcdClient(kernel, network, cluster)

        def scenario():
            yield from cluster.wait_for_leader()
            yield from client.put("a", 1)
            cluster.crash_leader()
            yield from cluster.wait_for_leader()
            yield from client.put("b", 2)
            a = yield from client.get("a")
            b = yield from client.get("b")
            return a, b

        assert run(kernel, scenario()) == (1, 2)

    def test_restarted_node_catches_up(self):
        kernel, network, cluster = make_cluster()
        client = EtcdClient(kernel, network, cluster)

        def scenario():
            leader = yield from cluster.wait_for_leader()
            victim = next(n for n in cluster.node_ids if n != leader.node_id)
            cluster.crash(victim)
            for i in range(5):
                yield from client.put(f"k{i}", i)
            cluster.restart(victim)
            yield self_kernel.sleep(2.0)
            return victim

        self_kernel = kernel
        victim = run(kernel, scenario())
        node = cluster.node(victim)
        assert node.state_machine.get("k4") == 4

    def test_session_dedup_across_retries(self):
        # A write retried across a leader crash must not apply twice.
        kernel, network, cluster = make_cluster()
        client = EtcdClient(kernel, network, cluster)

        def scenario():
            yield from cluster.wait_for_leader()
            yield from client.put("counter-seed", 0)
            # Crash the leader, then retry-loop a put; session dedup in
            # the state machine guarantees a single application.
            cluster.crash_leader()
            yield from client.put("after-crash", "written-once")
            yield from cluster.wait_for_leader()
            value = yield from client.get("after-crash")
            return value

        assert run(kernel, scenario()) == "written-once"


class TestPartitions:
    def test_minority_partitioned_leader_cannot_commit(self):
        kernel, network, cluster = make_cluster()
        kernel.run(until=2.0)
        leader = cluster.leader()
        others = [n for n in cluster.node_ids if n != leader.node_id]
        for other in others:
            network.partition(leader.node_id, other)
        kernel.run(until=6.0)
        new_leader = cluster.leader()
        # A new leader must have emerged on the majority side.
        assert new_leader is not None
        assert new_leader.node_id != leader.node_id

    def test_heal_reconciles_logs(self):
        kernel, network, cluster = make_cluster()
        client = EtcdClient(kernel, network, cluster)
        kernel.run(until=2.0)
        leader = cluster.leader()
        others = [n for n in cluster.node_ids if n != leader.node_id]
        for other in others:
            network.partition(leader.node_id, other)

        def scenario():
            yield from cluster.wait_for_leader()  # majority-side leader
            yield from client.put("post-partition", "v")

        run(kernel, scenario(), limit=30.0)
        network.heal_all()
        kernel.run(until=kernel.now + 3.0)
        assert cluster.logs_consistent()
        assert leader.state_machine.get("post-partition") == "v"


class TestWatches:
    def test_watch_sees_committed_puts(self):
        kernel, network, cluster = make_cluster()
        client = EtcdClient(kernel, network, cluster)

        def scenario():
            leader = yield from cluster.wait_for_leader()
            watch = client.watch("status/", node_id=leader.node_id)
            yield from client.put("status/learner-0", "RUNNING")
            event = yield watch.channel.get()
            return event.type, event.key, event.value

        assert run(kernel, scenario()) == ("put", "status/learner-0", "RUNNING")

    def test_lone_write_reaches_a_follower_watch_within_one_heartbeat(self):
        # A follower applies an entry when the leader's *next* append
        # carries the commit index; after a lone write that is the next
        # heartbeat. This is the bound on the status pipeline when the
        # Guardian's watch is served by a follower and nothing else is
        # being written (DESIGN.md "A quiet job is quiet").
        kernel, network, cluster = make_cluster()
        client = EtcdClient(kernel, network, cluster)

        def scenario():
            leader = yield from cluster.wait_for_leader()
            follower = next(n for n in cluster.node_ids
                            if n != leader.node_id)
            on_leader = client.watch("status/", node_id=leader.node_id)
            on_follower = client.watch("status/", node_id=follower)
            yield kernel.sleep(1.0)  # quiet: heartbeats only
            yield from client.put("status/learner-0", "FAILED")
            yield on_leader.channel.get()
            committed = kernel.now
            yield on_follower.channel.get()
            return kernel.now - committed

        lag = run(kernel, scenario())
        assert 0.0 < lag <= cluster.timings.heartbeat + 0.01

    def test_watch_channel_closes_on_node_crash(self):
        kernel, network, cluster = make_cluster()
        client = EtcdClient(kernel, network, cluster)

        def scenario():
            leader = yield from cluster.wait_for_leader()
            watch = client.watch("x/", node_id=leader.node_id)
            leader.crash()
            yield kernel.sleep(0.1)
            return watch.channel.closed

        assert run(kernel, scenario()) is True


class TestLeasesEndToEnd:
    def test_lease_expiry_deletes_key(self):
        kernel, network, cluster = make_cluster()
        client = EtcdClient(kernel, network, cluster)

        def scenario():
            yield from cluster.wait_for_leader()
            yield from client.lease_grant("hb", ttl=1.0)
            yield from client.put("alive/worker", "yes", lease="hb")
            yield kernel.sleep(3.0)  # well past TTL + sweep interval
            value = yield from client.get("alive/worker")
            return value

        assert run(kernel, scenario()) is None

    def test_keepalive_preserves_key(self):
        kernel, network, cluster = make_cluster()
        client = EtcdClient(kernel, network, cluster)

        def scenario():
            yield from cluster.wait_for_leader()
            yield from client.lease_grant("hb", ttl=1.0)
            yield from client.put("alive/worker", "yes", lease="hb")
            for _ in range(6):
                yield kernel.sleep(0.5)
                yield from client.lease_keepalive("hb")
            value = yield from client.get("alive/worker")
            return value

        assert run(kernel, scenario()) == "yes"
