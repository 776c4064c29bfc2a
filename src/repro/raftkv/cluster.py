"""Assembly of an N-node replicated KV cluster (the simulated ETCD).

DLaaS runs a 3-way replicated ETCD (paper §III.f); :class:`EtcdCluster`
builds that: N Raft nodes on the shared network, with helpers to find
the leader, crash/restart members, and await stability — the operations
the dependability experiments need.
"""

from .node import HEARTBEAT, RaftNode

LEADER_WAIT_TIMEOUT = 10.0  # wait_for_leader gives up after this, sim s


class EtcdCluster:
    """N Raft nodes plus test/experiment conveniences."""

    def __init__(self, kernel, network, metrics, events, size=3):
        if size < 1:
            raise ValueError("cluster size must be >= 1")
        self.kernel = kernel
        self.network = network
        node_ids = [f"etcd-{i}" for i in range(size)]
        self.nodes = {
            node_id: RaftNode(kernel, network, node_id, node_ids,
                              metrics, events)
            for node_id in node_ids
        }

    def start(self):
        for node in self.nodes.values():
            node.start()
        return self

    @property
    def node_ids(self):
        return list(self.nodes)

    def node(self, node_id):
        return self.nodes[node_id]

    def leader(self):
        """The current leader node, or None if there is none."""
        leaders = [n for n in self.nodes.values() if n.is_leader]
        if not leaders:
            return None
        # With a partition two nodes can both *claim* leadership; the
        # one with the highest term is the real one.
        return max(leaders, key=lambda n: n.current_term)

    def wait_for_leader(self):
        """Process generator: yields until a leader exists; returns it."""
        timeout = LEADER_WAIT_TIMEOUT
        deadline = self.kernel.now + timeout
        while self.kernel.now < deadline:
            leader = self.leader()
            if leader is not None:
                return leader
            yield self.kernel.sleep(HEARTBEAT)
        raise TimeoutError(f"no leader within {timeout}s")

    def crash(self, node_id):
        self.nodes[node_id].crash()

    def restart(self, node_id):
        self.nodes[node_id].restart()

    def crash_leader(self):
        leader = self.leader()
        if leader is not None:
            leader.crash()
        return leader

    def alive_count(self):
        return sum(1 for n in self.nodes.values() if n.alive)
