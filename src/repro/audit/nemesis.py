"""Nemesis soak: gray faults + crashes against etcd under client load.

The consistency-audit acceptance scenario: a handful of concurrent
clients hammer a dedicated key range with put/get/cas/delete while a
nemesis process fires a mix of every gray fault kind with etcd member
crashes and restarts (``Fault``s of :mod:`repro.core.faults`) — and
the recorded client history must still pass the linearizability
checker. The companion
:func:`seeded_stale_read_scenario` flips the ``stale_reads`` toggle on
every node and deterministically manufactures a stale read, proving
the checker actually fails on a real violation.

Fault envelope (why the soak is survivable by design, not by luck):

* crashes always leave a majority up (at most one node down at once);
* one-way partitions cut a single direction of a single pair, so
  replication routes around them instead of stalling every commit;
* disk stalls stay under the Raft RPC timeout — slow, not dead;
* client->node partitions and loss produce timeouts the client
  records as ``info`` (maybe-applied), exercising the checker's
  indeterminacy handling.
"""

from ..core.errors import DlaasError
from ..core.faults import Fault, fire
from ..raftkv import EtcdClient, NoLeader

__all__ = ["NemesisSoak", "seeded_stale_read_scenario"]

# Soak pacing, simulated seconds (periods are means: each wait draws
# 0.5–1.5x).
OP_PERIOD = 0.06
NEMESIS_PERIOD = 3.0
FAULT_DURATION = (1.0, 2.5)
CRASH_RESTART_AFTER = 1.5
GRACE = 6.0  # after the soak, for in-flight ops to drain
# The mix, drawn uniformly; one-way partitions cut a peer link or a
# client's link to a member.
MIX = ("slow", "oneway-peer", "oneway-client", "loss", "duplicate",
       "disk-stall", "crash")
# Added latency (s), loss and duplication probabilities, and a stall
# under the 0.06 s Raft RPC timeout: slow, not dead.
AMOUNT = {"slow": 0.03, "loss": 0.3, "duplicate": 0.5, "disk-stall": 0.04}


class NemesisSoak:
    """Concurrent KV load plus a mixed gray/crash nemesis."""

    KEY_PREFIX = "/audit/k"

    def __init__(self, platform, clients=4, keys=6, duration=40.0):
        if platform.history is None:
            raise ValueError(
                "NemesisSoak needs PlatformConfig(history_recording=True)")
        self.platform = platform
        self.clients = clients
        self.keys = keys
        self.duration = duration
        self._deadline = None
        self.faults_injected = []  # (time, Fault)
        self.ops_issued = 0

    # ------------------------------------------------------------------

    def run(self):
        """Drive the whole scenario; returns a summary dict.

        Runs load+nemesis for ``duration``, then heals everything,
        restarts any crashed node, lets in-flight ops drain for
        ``GRACE``, and runs a final audit pass over the history.
        """
        platform = self.platform
        kernel = platform.kernel
        self._deadline = kernel.now + self.duration
        for i in range(self.clients):
            kernel.spawn(self._client(i), name=f"audit-client-{i}")
        kernel.spawn(self._nemesis(), name="audit-nemesis")
        platform.run_for(self.duration)

        # Quiesce: clear lingering faults, bring every member back, let
        # clients finish their in-flight retries.
        platform.network.heal_all()
        for node_id in platform.etcd.node_ids:
            node = platform.etcd.node(node_id)
            if not node.alive:
                node.restart()
            node.disk_stall = 0.0
        platform.run_for(GRACE)

        auditor = platform.monitoring.auditor
        auditor.audit_once()
        summary = auditor.summary()
        violations = auditor.violations
        counts = platform.history.counts()
        return {
            "ok": not violations,
            "violations": violations,
            "audit": summary,
            "history": counts,
            "ops_issued": self.ops_issued,
            "faults_injected": list(self.faults_injected),
        }

    # ------------------------------------------------------------------
    # Client load
    # ------------------------------------------------------------------

    def _client(self, index):
        platform = self.platform
        kernel = platform.kernel
        client_id = f"audit-client-{index}"
        etcd = EtcdClient(kernel, platform.network, platform.etcd,
                          client_id=client_id, history=platform.history,
                          max_attempts=20, rpc_deadline=0.3)
        rng = kernel.rng(f"audit:client:{index}")
        last_seen = {}  # key -> last value this client observed
        n = 0
        while kernel.now < self._deadline:
            key = f"{self.KEY_PREFIX}{rng.randrange(self.keys)}"
            roll = rng.random()
            n += 1
            self.ops_issued += 1
            try:
                if roll < 0.40:
                    yield from etcd.put(key, f"{client_id}:{n}")
                    last_seen[key] = f"{client_id}:{n}"
                elif roll < 0.70:
                    last_seen[key] = yield from etcd.get(key)
                elif roll < 0.90:
                    # Guess the last value we saw; both outcomes are
                    # checkable (success and observed-actual mismatch).
                    result = yield from etcd.cas(key, last_seen.get(key),
                                                 f"{client_id}:{n}")
                    if result.get("ok"):
                        last_seen[key] = f"{client_id}:{n}"
                else:
                    yield from etcd.delete(key)
                    last_seen[key] = None
            except NoLeader:
                pass  # recorded as fail/info; keep hammering
            yield kernel.sleep(OP_PERIOD * (0.5 + rng.random()))

    # ------------------------------------------------------------------
    # Nemesis
    # ------------------------------------------------------------------

    def _nemesis(self):
        platform = self.platform
        kernel = platform.kernel
        rng = kernel.rng("audit:nemesis")
        node_ids = list(platform.etcd.node_ids)
        while kernel.now < self._deadline - FAULT_DURATION[1]:
            yield kernel.sleep(NEMESIS_PERIOD * (0.5 + rng.random()))
            fault = self._draw(rng, node_ids)
            try:
                fire(platform, fault)
            except DlaasError:
                continue  # a crash that would cost the quorum
            self.faults_injected.append((round(kernel.now, 3), fault))

    def _draw(self, rng, node_ids):
        """The next fault of the mix, against a random member. Draws
        the mix entry, the duration, the member, then a one-way
        partition's other end."""
        lo, hi = FAULT_DURATION
        mix = MIX[rng.randrange(len(MIX))]
        duration = lo + rng.random() * (hi - lo)
        target = node_ids[rng.randrange(len(node_ids))]
        if mix == "crash":
            return Fault("etcd-member", target, duration=CRASH_RESTART_AFTER)
        if mix == "oneway-peer":
            # One direction of one pair: replication detours, the
            # cluster keeps committing.
            peers = [n for n in node_ids if n != target]
            return Fault("oneway", (target, peers[rng.randrange(len(peers))]),
                         duration=duration)
        if mix == "oneway-client":
            client = f"audit-client-{rng.randrange(self.clients)}"
            return Fault("oneway", (client, target), duration=duration)
        return Fault(mix, target, AMOUNT[mix], duration)


# ----------------------------------------------------------------------
# Seeded bug: deterministic stale read the checker must catch
# ----------------------------------------------------------------------

SEEDED_KEY = "/audit/seeded"  # the key the seeded scenario writes and reads


def seeded_stale_read_scenario(platform):
    """Manufacture a stale read via the ``stale_reads`` node toggle.

    Sequence: write v1 through the current leader, partition that
    leader from its peers (it keeps believing it leads — its election
    timer only resets while LEADER), let the majority elect a
    replacement and commit v2, then read through the old leader. With
    ``stale_reads=True`` the deposed leader serves v1 from its frozen
    state machine — after v2's write completed — which is exactly the
    non-linearizable history the checker exists to catch. Returns the
    check result for ``SEEDED_KEY``; with the toggle off the same sequence
    passes (the lease turns the final read into a redirect to the new
    leader).
    """
    if platform.history is None:
        raise ValueError("seeded_stale_read_scenario needs "
                         "PlatformConfig(history_recording=True)")
    kernel = platform.kernel
    cluster = platform.etcd
    network = platform.network

    def run():
        writer = EtcdClient(kernel, network, cluster,
                            client_id="seeded-writer",
                            history=platform.history)
        yield from writer.put(SEEDED_KEY, "v1")
        old_leader = cluster.leader().node_id
        for peer in cluster.node_ids:
            if peer != old_leader:
                network.partition(old_leader, peer)
        # Majority side elects a replacement (election_max plus slack).
        deadline = kernel.now + 5.0
        while kernel.now < deadline:
            leader = cluster.leader()
            if leader is not None and leader.node_id != old_leader \
                    and leader.is_leader:
                break
            yield kernel.sleep(0.05)
        yield from writer.put(SEEDED_KEY, "v2")
        # A second client whose hint still points at the deposed
        # leader: with stale_reads it answers v1 from frozen state.
        reader = EtcdClient(kernel, network, cluster,
                            client_id="seeded-reader",
                            history=platform.history)
        reader._leader_hint = old_leader
        return (yield from reader.get(SEEDED_KEY))

    observed = platform.run_process(run(), limit=100_000)
    from .checker import check_operations
    outcome = check_operations(platform.history.ops_for_key(SEEDED_KEY))
    return observed, outcome
