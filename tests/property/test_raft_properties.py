"""Property-based tests for Raft structures and a randomized
crash-schedule safety check on the full cluster ("Jepsen-lite")."""

from hypothesis import given, settings, strategies as st

from repro.grpcnet import LatencyModel, Network
from repro.raftkv import EtcdClient, KvStateMachine, LogEntry, RaftLog
from repro.sim import Kernel, MetricsRegistry

from ..observers import etcd_cluster
from ..raftkv.oracles import logs_consistent

entry_lists = st.lists(
    st.tuples(st.integers(1, 5), st.integers(0, 9)).map(
        lambda pair: LogEntry(term=pair[0], command={"v": pair[1]})
    ),
    max_size=8,
)


class TestLogProperties:
    @given(entry_lists)
    def test_splice_from_empty_installs_everything(self, entries):
        log = RaftLog()
        log.splice(0, entries)
        assert log.last_index == len(entries)
        for index, entry in enumerate(entries, start=1):
            assert log.entry_at(index) == entry

    @given(entry_lists)
    def test_splice_idempotent(self, entries):
        log = RaftLog()
        log.splice(0, entries)
        first = [log.entry_at(i) for i in range(1, log.last_index + 1)]
        log.splice(0, entries)
        second = [log.entry_at(i) for i in range(1, log.last_index + 1)]
        assert first == second

    @given(entry_lists, entry_lists)
    def test_up_to_date_is_total_order(self, a_entries, b_entries):
        a, b = RaftLog(), RaftLog()
        a.splice(0, a_entries)
        b.splice(0, b_entries)
        a_current = a.is_up_to_date(b.last_index, b.last_term)
        b_current = b.is_up_to_date(a.last_index, a.last_term)
        assert a_current or b_current  # at least one side is up to date


commands = st.one_of(
    st.builds(lambda k, v: {"op": "put", "key": k, "value": v},
              st.sampled_from("abcd"), st.integers(0, 9)),
    st.builds(lambda k: {"op": "delete", "key": k}, st.sampled_from("abcd")),
    st.builds(lambda k, e, v: {"op": "cas", "key": k, "expected": e, "value": v},
              st.sampled_from("abcd"), st.integers(0, 9), st.integers(0, 9)),
)


class TestStateMachineProperties:
    @given(st.lists(commands, max_size=30))
    def test_replicas_replaying_same_commands_agree(self, command_list):
        first, second = KvStateMachine(), KvStateMachine()
        for command in command_list:
            first.apply(dict(command))
            second.apply(dict(command))
        assert first.data == second.data
        assert first.revision == second.revision

    @given(st.lists(commands, max_size=30))
    def test_revision_never_decreases(self, command_list):
        sm = KvStateMachine()
        last = 0
        for command in command_list:
            sm.apply(dict(command))
            assert sm.revision >= last
            last = sm.revision

    @given(st.lists(st.tuples(st.integers(1, 5), commands), max_size=20))
    def test_session_dedup_under_arbitrary_retries(self, numbered):
        """Replaying any prefix of a client's commands (stale retries)
        never changes the outcome."""
        reference = KvStateMachine()
        replayed = KvStateMachine()
        tagged = []
        for seq, (_tag, command) in enumerate(numbered, start=1):
            cmd = dict(command)
            cmd["client_id"] = "c"
            cmd["seq"] = seq
            tagged.append(cmd)
        for cmd in tagged:
            reference.apply(dict(cmd))
        for index, cmd in enumerate(tagged):
            replayed.apply(dict(cmd))
            # Retry a random earlier command (deterministically: the first).
            if index:
                replayed.apply(dict(tagged[0]))
        assert reference.data == replayed.data


class TestClusterSafety:
    """Randomized crash schedules must never violate log consistency or
    lose acknowledged writes."""

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        crashes=st.lists(
            st.tuples(st.floats(0.5, 10.0), st.integers(0, 2), st.floats(0.5, 3.0)),
            max_size=3,
        ),
    )
    def test_acknowledged_writes_survive_crash_schedules(self, seed, crashes):
        kernel = Kernel(seed=seed)
        network = Network(kernel, MetricsRegistry(),
                          latency=LatencyModel(0.002, 0.002))
        cluster = etcd_cluster(kernel, network).start()
        client = EtcdClient(kernel, network, cluster)
        acknowledged = []

        for at, victim, downtime in crashes:
            node_id = cluster.node_ids[victim]

            def schedule(node_id=node_id, downtime=downtime):
                cluster.crash(node_id)
                yield kernel.sleep(downtime)
                cluster.restart(node_id)

            def delayed(at=at, gen=schedule):
                yield kernel.sleep(at)
                yield kernel.spawn(gen())

            kernel.spawn(delayed())

        def writer():
            yield from cluster.wait_for_leader()
            for i in range(15):
                yield from client.put(f"key-{i % 4}", i)
                acknowledged.append((f"key-{i % 4}", i))
                yield kernel.sleep(0.8)

        kernel.run_until_complete(kernel.spawn(writer()), limit=200)
        kernel.run(until=kernel.now + 10.0)  # settle: elections, catch-up

        assert logs_consistent(cluster)
        # The final acknowledged value of each key is what a quorum holds.
        final = {}
        for key, value in acknowledged:
            final[key] = value
        leader = cluster.leader()
        assert leader is not None
        for key, value in final.items():
            assert leader.state_machine.data.get(key) == value
