"""Nemesis soak: gray faults + crashes against etcd under client load.

The consistency-audit acceptance scenario: a handful of concurrent
clients hammer a dedicated key range with put/get/cas/delete while a
nemesis process mixes every gray impairment kind
(:class:`repro.core.faults.GrayFailureInjector`) with node crashes and
restarts — and the recorded client history must still pass the
linearizability checker. The companion
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

from ..core.faults import GrayFailureInjector
from ..raftkv import EtcdClient, NoLeader

__all__ = ["NemesisSoak", "seeded_stale_read_scenario"]

# Soak pacing, simulated seconds (periods are means: each wait draws
# 0.5–1.5x).
OP_PERIOD = 0.06
NEMESIS_PERIOD = 3.0
FAULT_DURATION = (1.0, 2.5)
CRASH_RESTART_AFTER = 1.5


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
        self.faults_injected = []  # (time, kind, target)
        self.ops_issued = 0

    # ------------------------------------------------------------------

    def run(self, grace=6.0):
        """Drive the whole scenario; returns a summary dict.

        Runs load+nemesis for ``duration``, then heals everything,
        restarts any crashed node, lets in-flight ops drain for
        ``grace``, and runs a final audit pass over the history.
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
        platform.run_for(grace)

        auditor = (platform.monitoring.auditor
                   if platform.monitoring is not None else None)
        if auditor is not None:
            auditor.audit_once()
            summary = auditor.summary()
            violations = auditor.violations
        else:
            from .checker import check_history
            result = check_history(platform.history)
            summary = {"ops_checked": result.ops_checked,
                       "violations": len(result.violations)}
            violations = result.violations
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
        injector = GrayFailureInjector(platform)
        rng = kernel.rng("audit:nemesis")
        node_ids = list(platform.etcd.node_ids)
        kinds = ("slow", "oneway-peer", "oneway-client", "loss",
                 "duplicate", "disk-stall", "crash")
        lo, hi = FAULT_DURATION
        while kernel.now < self._deadline - hi:
            yield kernel.sleep(NEMESIS_PERIOD * (0.5 + rng.random()))
            kind = kinds[rng.randrange(len(kinds))]
            duration = lo + rng.random() * (hi - lo)
            target = node_ids[rng.randrange(len(node_ids))]
            if kind == "slow":
                injector.slow_endpoint(target, extra_latency=0.03,
                                       duration=duration)
            elif kind == "oneway-peer":
                # One direction of one pair: replication detours, the
                # cluster keeps committing.
                peers = [n for n in node_ids if n != target]
                dst = peers[rng.randrange(len(peers))]
                injector.oneway_partition(target, dst, duration=duration)
            elif kind == "oneway-client":
                client = f"audit-client-{rng.randrange(self.clients)}"
                injector.oneway_partition(client, target,
                                          duration=duration)
            elif kind == "loss":
                injector.lossy_endpoint(target, loss=0.3,
                                        duration=duration)
            elif kind == "duplicate":
                injector.lossy_endpoint(target, duplicate=0.5,
                                        duration=duration)
            elif kind == "disk-stall":
                # Under the 0.06 s Raft rpc timeout: slow, not dead.
                injector.disk_stall_etcd(target, delay=0.04,
                                         duration=duration)
            else:
                if not self._crash(target):
                    continue
            self.faults_injected.append(
                (round(kernel.now, 3), kind, target))

    def _crash(self, node_id):
        """Crash one node if a majority stays up; restart it shortly."""
        cluster = self.platform.etcd
        node = cluster.node(node_id)
        majority = len(cluster.node_ids) // 2 + 1
        if not node.alive or cluster.alive_count() - 1 < majority:
            return False
        node.crash()
        kernel = self.platform.kernel

        def restart():
            yield kernel.sleep(CRASH_RESTART_AFTER)
            if not node.alive:
                node.restart()

        kernel.spawn(restart(), name=f"audit-restart-{node_id}")
        return True


# ----------------------------------------------------------------------
# Seeded bug: deterministic stale read the checker must catch
# ----------------------------------------------------------------------

def seeded_stale_read_scenario(platform, key="/audit/seeded"):
    """Manufacture a stale read via the ``stale_reads`` node toggle.

    Sequence: write v1 through the current leader, partition that
    leader from its peers (it keeps believing it leads — its election
    timer only resets while LEADER), let the majority elect a
    replacement and commit v2, then read through the old leader. With
    ``stale_reads=True`` the deposed leader serves v1 from its frozen
    state machine — after v2's write completed — which is exactly the
    non-linearizable history the checker exists to catch. Returns the
    check result for ``key``; with the toggle off the same sequence
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
        yield from writer.put(key, "v1")
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
        yield from writer.put(key, "v2")
        # A second client whose hint still points at the deposed
        # leader: with stale_reads it answers v1 from frozen state.
        reader = EtcdClient(kernel, network, cluster,
                            client_id="seeded-reader",
                            history=platform.history)
        reader._leader_hint = old_leader
        return (yield from reader.get(key))

    observed = platform.run_process(run(), limit=100_000)
    from .checker import check_operations
    outcome = check_operations(platform.history.ops_for_key(key))
    return observed, outcome
