"""A Raft consensus node.

Implements the core Raft protocol from Ongaro & Ousterhout: randomized
election timeouts, leader election with the log-up-to-date restriction,
log replication with the fast next-index back-off, the current-term
commit rule, and a no-op barrier entry at the start of each leadership
term. Committed entries are applied to a deterministic KV state machine
(:mod:`repro.raftkv.statemachine`).

Each node is an RPC server on the simulated network. Crashing a node
stops its server, kills its processes, and discards volatile state;
persistent state (term, vote, log) survives restart, as if fsynced.
"""

from ..grpcnet import Server
from ..grpcnet.errors import RpcError
from ..sim.errors import ProcessKilled
from ..sim.events import PENDING, SUCCEEDED, Event
from ..sim.periodic import Periodic
from .errors import NotLeader
from .log import RaftLog
from .rpc import (
    AppendEntries,
    AppendEntriesReply,
    InstallSnapshot,
    InstallSnapshotReply,
    RequestVote,
    RequestVoteReply,
)
from .statemachine import KvStateMachine
from .watch import WatchHub

FOLLOWER = "follower"
CANDIDATE = "candidate"
LEADER = "leader"


RPC_TIMEOUT = 0.06  # deadline of one peer RPC, simulated seconds
LEASE_SWEEP = 0.5  # how often the leader expires overdue leases
# Election timeout drawn from [ELECTION_MIN, ELECTION_MAX); the leader
# sends an empty append every HEARTBEAT. Simulated seconds, etcd's
# defaults: ``--heartbeat-interval`` 100 ms, ``--election-timeout``
# 1000 ms drawn from [T, 2T). A follower learns a new commit index at
# once, not at the next heartbeat (``_advance_commit``).
ELECTION_MIN = 1.0
ELECTION_MAX = 2.0
HEARTBEAT = 0.1
# Compact the log once this many entries are applied beyond the last
# snapshot (``RaftNode.snapshot_threshold``; 0 disables compaction).
SNAPSHOT_THRESHOLD = 500


class _Idle(Event):
    """A caught-up replicator's wait: its ``HEARTBEAT`` timer and its
    poke in one object, which is also the heartbeat's queue entry.

    It takes the hops the three objects it stands for took (DESIGN.md,
    "A quiet wake is one queue entry"): the heartbeat fires through the
    timer hop (``Kernel.timer_hop``), a :meth:`poke` through a queued
    one, and either then queues the wake that resumes the replicator.
    A poked wait's heartbeat entry stays queued, dead, and is counted
    as a cancelled timer's is.
    """

    __slots__ = ("_queued", "_dead")

    def __init__(self, kernel):
        Event.__init__(self, kernel)
        self._queued = True  # the heartbeat entry has not been reached
        self._dead = False
        kernel.call_later(HEARTBEAT, self)

    def __call__(self):
        self._queued = False
        kernel = self._kernel
        if self._dead:
            kernel.dead_entries_skipped += 1
            kernel._dead_pending -= 1
        elif self.state is PENDING:
            self.state = SUCCEEDED
            if self._callbacks:
                kernel.timer_hop(self._relay)

    def poke(self):
        if self.state is PENDING:
            self.state = SUCCEEDED
            if self._callbacks:
                self._kernel._ready.append(self._relay)

    def _relay(self):
        self._kernel._ready.append(self._wake)

    def _wake(self):
        callbacks, self._callbacks = self._callbacks, ()
        if callbacks:
            if self._queued:  # poked: the heartbeat entry is now dead
                self._dead = True
                kernel = self._kernel
                kernel.timers_cancelled += 1
                kernel._dead_pending += 1
            for callback in callbacks:
                callback(self)


class RaftNode:
    """One member of the replicated store."""

    MAX_BATCH = 64

    def __init__(self, kernel, network, node_id, peer_ids, metrics, events):
        self.kernel = kernel
        self.network = network
        self.node_id = node_id
        self.peer_ids = [p for p in peer_ids if p != node_id]
        self.events = events
        # Children bound once: node_id is fixed for the node's life.
        self._m_elections = metrics.counter(
            "raft_leader_elections_total", ("node",),
            help="Times this node won a leader election"
        ).labels(node=node_id)
        self._m_commit_dur = metrics.histogram(
            "raft_commit_duration_seconds", ("node",),
            help="Leader-side propose-to-commit latency"
        ).labels(node=node_id)
        self._m_applied = metrics.counter(
            "raft_applied_entries_total", ("node",),
            help="Log entries applied to the state machine"
        ).labels(node=node_id)
        self._m_dup_applies = metrics.counter(
            "raft_duplicate_applies_total", ("node",),
            help="Committed commands deduplicated by the session "
                 "table: a retried client op that reached the log "
                 "twice"
        ).labels(node=node_id)
        self.snapshot_threshold = SNAPSHOT_THRESHOLD
        self._rng = kernel.rng(f"raft:{node_id}")

        # Persistent state (survives crash/restart).
        self.current_term = 0
        self.voted_for = None
        self.log = RaftLog()
        self.snapshot = None  # {"index", "term", "state"} once compacted

        # Volatile state.
        self.role = FOLLOWER
        self.leader_id = None
        self.commit_index = 0
        self.last_applied = 0
        self.watch_hub = WatchHub(kernel)
        self.state_machine = KvStateMachine(watch_hub=self.watch_hub)
        self.alive = False
        self._next_index = {}
        self._match_index = {}
        self._waiters = {}  # log index -> (term, event)
        self._idle = {}  # peer -> its replicator's wait, to poke it
        self._last_heartbeat = 0.0
        # Check-quorum lease: when each peer last acknowledged this
        # node's leadership (send time of the acked RPC, which is the
        # conservative anchor). Reads are served only while a majority
        # acked within election_min — a deposed leader cut off from its
        # peers steps out of the read path before any replacement can
        # be elected, closing the stale-read window.
        self._peer_acks = {}
        # Test-only seeded bug: serve leader-local reads without the
        # check-quorum lease (the pre-audit behaviour). A partitioned
        # deposed leader then answers from stale state — exists so the
        # linearizability checker has a real violation to catch; never
        # set by production code paths.
        self.stale_reads = False
        self._procs = set()
        # Expires overdue leases while this node leads, from one
        # LEASE_SWEEP after it won the term.
        self._sweeper = Periodic(kernel, f"{node_id}:lease-sweeper",
                                 self._sweep_leases, LEASE_SWEEP,
                                 sleep_first=True)
        # Gray fault: seconds every log-carrying append hangs in the
        # simulated disk before being applied. Pure heartbeats (no
        # entries) skip the stall, so elections don't trip — the node
        # stays a healthy-looking follower that replicates slowly.
        self.disk_stall = 0.0

        self.server = Server(kernel, network, node_id)
        self.server.add_method("request_vote", self._on_request_vote)
        self.server.add_method("append_entries", self._on_append_entries)
        # Empty appends travel under their own name (etcd's MsgHeartbeat
        # beside MsgApp) so per-method RPC statistics for
        # ``append_entries`` are statistics over log writes.
        self.server.add_method("heartbeat", self._on_append_entries)
        self.server.add_method("install_snapshot", self._on_install_snapshot)
        self.server.add_method("propose", self._on_propose)
        self.server.add_method("read", self._on_read)
        self.server.add_method("range", self._on_range)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self):
        if self.alive:
            return self
        self.alive = True
        self.role = FOLLOWER
        self.leader_id = None
        if self.snapshot is not None:
            # Disk recovery: restore the snapshot image, then re-apply
            # the surviving log suffix as commits advance.
            self.state_machine = KvStateMachine.from_snapshot(
                self.snapshot["state"], watch_hub=self.watch_hub
            )
            self.commit_index = self.snapshot["index"]
            self.last_applied = self.snapshot["index"]
        else:
            self.state_machine = KvStateMachine(watch_hub=self.watch_hub)
            self.commit_index = 0
            self.last_applied = 0
        self._last_heartbeat = self.kernel.now
        self.server.start()
        self._spawn(self._election_timer(), "election-timer")
        return self

    def crash(self):
        """Kill the node: volatile state is lost, disk survives."""
        if not self.alive:
            return self
        self.alive = False
        self.role = FOLLOWER
        self.leader_id = None
        self.server.stop()
        self.watch_hub.close_all()
        self._waiters.clear()
        self._idle.clear()
        self._sweeper.stop()
        procs, self._procs = self._procs, set()
        for proc in procs:
            proc.kill(f"{self.node_id} crashed")
        return self

    restart = start

    def _spawn(self, generator, label):
        process = self.kernel.spawn(generator, name=f"{self.node_id}:{label}")
        self._procs.add(process)
        process.add_callback(lambda _ev: self._procs.discard(process))
        return process

    # ------------------------------------------------------------------
    # Role transitions
    # ------------------------------------------------------------------

    @property
    def is_leader(self):
        return self.alive and self.role == LEADER

    def _become_follower(self, term, leader_id=None):
        stepping_down = self.role != FOLLOWER
        if term > self.current_term:
            self.current_term = term
            self.voted_for = None
        self.role = FOLLOWER
        if leader_id is not None:
            self.leader_id = leader_id
        if stepping_down:
            self._fail_waiters()

    def _become_leader(self):
        self.role = LEADER
        self.leader_id = self.node_id
        self._next_index = {p: self.log.last_index + 1 for p in self.peer_ids}
        self._match_index = {p: 0 for p in self.peer_ids}
        # Seed the lease from the vote grants that just elected us: each
        # voter reset its election timer when granting, so "heard from a
        # majority within election_min" holds at this instant — the
        # lease never lapses on a healthy cluster and the read path is
        # timeline-identical to the pre-lease behaviour.
        self._peer_acks = {p: self.kernel.now for p in self.peer_ids}
        self._m_elections.inc()
        self.events.emit_event(
            "Normal", "LeaderElected", "EtcdNode", self.node_id,
            message=f"won election for term {self.current_term}")
        # Barrier no-op: lets this term commit entries from prior terms
        # (Raft §5.4.2) without waiting for a client write.
        self.log.append(self.current_term, {"op": "noop"})
        self._idle = {}
        for peer in self.peer_ids:
            self._spawn(self._replicate(peer, self.current_term), f"repl:{peer}")
        self._sweeper.stop()  # a sweep of an earlier term would drift
        self._sweeper.start()
        self._advance_commit()

    def _fail_waiters(self):
        waiters, self._waiters = self._waiters, {}
        for _index, (term, event) in waiters.items():
            if not event.triggered:
                event.fail(NotLeader(self.node_id, self.leader_id))

    # ------------------------------------------------------------------
    # Election timer and elections
    # ------------------------------------------------------------------

    def _election_deadline(self):
        spread = ELECTION_MAX - ELECTION_MIN
        return self._last_heartbeat + ELECTION_MIN + self._rng.random() * spread

    def _election_timer(self):
        while self.alive:
            deadline = self._election_deadline()
            if self.kernel.now < deadline:
                yield self.kernel.sleep(deadline - self.kernel.now)
                continue
            if self.role != LEADER:
                self._start_election()
            self._last_heartbeat = self.kernel.now

    def _start_election(self):
        self.role = CANDIDATE
        self.current_term += 1
        self.voted_for = self.node_id
        self.leader_id = None
        term = self.current_term
        votes = {self.node_id}
        majority = (len(self.peer_ids) + 1) // 2 + 1
        if len(votes) >= majority:
            self._become_leader()
            return
        request = RequestVote(
            term=term,
            candidate_id=self.node_id,
            last_log_index=self.log.last_index,
            last_log_term=self.log.last_term,
        )
        for peer in self.peer_ids:
            self._spawn(self._solicit_vote(peer, request, votes, majority), f"vote:{peer}")

    def _solicit_vote(self, peer, request, votes, majority):
        try:
            reply = yield self.network.call(
                peer, "request_vote", request,
                deadline=RPC_TIMEOUT, caller=self.node_id,
            )
        except (RpcError, ProcessKilled):
            return
        if not self.alive or self.role != CANDIDATE or self.current_term != request.term:
            return
        if reply.term > self.current_term:
            self._become_follower(reply.term)
            return
        if reply.vote_granted:
            votes.add(reply.voter_id)
            if len(votes) >= majority:
                self._become_leader()

    # ------------------------------------------------------------------
    # RPC handlers (run on the server, possibly concurrently)
    # ------------------------------------------------------------------

    def _on_request_vote(self, request):
        if request.term > self.current_term:
            self._become_follower(request.term)
        granted = False
        if request.term == self.current_term:
            can_vote = self.voted_for in (None, request.candidate_id)
            log_ok = self.log.is_up_to_date(request.last_log_index, request.last_log_term)
            if can_vote and log_ok and self.role == FOLLOWER:
                granted = True
                self.voted_for = request.candidate_id
                self._last_heartbeat = self.kernel.now
        return RequestVoteReply(term=self.current_term, vote_granted=granted,
                                voter_id=self.node_id)

    def _on_append_entries(self, request):
        # Plain while the disk is healthy; a stalled disk makes a
        # log-carrying append wait out the stall first.
        if self.disk_stall and request.entries:
            return self._stalled_append(request)
        return self._append(request)

    def _stalled_append(self, request):
        yield self.kernel.sleep(self.disk_stall)
        return self._append(request)

    def _append(self, request):
        if request.term < self.current_term:
            return AppendEntriesReply(
                term=self.current_term, success=False, follower_id=self.node_id,
                next_index_hint=self.log.last_index + 1,
            )
        self._become_follower(request.term, leader_id=request.leader_id)
        self._last_heartbeat = self.kernel.now
        if not self.log.matches(request.prev_log_index, request.prev_log_term):
            hint = min(self.log.last_index + 1, max(1, request.prev_log_index))
            return AppendEntriesReply(
                term=self.current_term, success=False, follower_id=self.node_id,
                next_index_hint=hint,
            )
        last_new = self.log.splice(request.prev_log_index, request.entries)
        if request.leader_commit > self.commit_index:
            self.commit_index = min(request.leader_commit, self.log.last_index)
            self._apply_committed()
        return AppendEntriesReply(
            term=self.current_term, success=True, follower_id=self.node_id,
            match_index=last_new,
        )

    def _on_propose(self, command):
        if not self.is_leader:
            raise NotLeader(self.node_id, self.leader_id)
        proposed = self.kernel.now
        index = self.log.append(self.current_term, command)
        waiter = self.kernel.event(name=f"commit@{index}")
        self._waiters[index] = (self.current_term, waiter)
        self._poke_replicators()
        self._advance_commit()  # single-node clusters commit immediately
        result = yield waiter
        self._m_commit_dur.observe(self.kernel.now - proposed)
        return result

    def _read_lease_valid(self):
        """Check-quorum leader lease.

        True when a majority of the cluster (this node plus peers that
        acked an RPC *sent* within the last election_min) still
        accepted this node's leadership recently enough that no
        replacement can have been elected: a peer that acked at time t
        reset its election timer no earlier than t, so it cannot grant
        a vote before t + election_min. The simulation has one global
        clock, so unlike real deployments the lease argument here is
        exact, not an assumption about bounded clock drift.
        """
        if not self.peer_ids:
            return True
        horizon = self.kernel.now - ELECTION_MIN
        fresh = 1 + sum(1 for t in self._peer_acks.values() if t > horizon)
        return fresh >= (len(self.peer_ids) + 1) // 2 + 1

    def _on_read(self, request):
        """Leader-local linearizable read.

        Served from the leader's applied state, guarded by the
        check-quorum lease above; a leader that cannot prove recent
        majority contact redirects the client (no hint — it genuinely
        does not know who leads now) rather than risk a stale read.
        """
        if not self.is_leader:
            raise NotLeader(self.node_id, self.leader_id)
        if not (self.stale_reads or self._read_lease_valid()):
            raise NotLeader(self.node_id, None)
        key = request["key"]
        value, revision = self.state_machine.get_with_revision(key)
        return {"value": value, "revision": revision, "found": revision != 0}

    def _on_range(self, request):
        if not self.is_leader:
            raise NotLeader(self.node_id, self.leader_id)
        if not (self.stale_reads or self._read_lease_valid()):
            raise NotLeader(self.node_id, None)
        return {"kvs": self.state_machine.range(request["prefix"])}

    # ------------------------------------------------------------------
    # Leader: replication, commit, leases
    # ------------------------------------------------------------------

    def _poke_replicators(self):
        idle = self._idle
        for peer in self.peer_ids:  # peer order: the hops queue in it
            if peer in idle:
                idle[peer].poke()

    def _replicate(self, peer, term):
        while self.alive and self.role == LEADER and self.current_term == term:
            next_index = self._next_index[peer]
            if next_index <= self.log.offset:
                # The follower needs entries we compacted away: ship the
                # whole snapshot instead (Raft §7, InstallSnapshot).
                done = yield from self._send_snapshot(peer, term)
                if not done:
                    return
                continue
            prev_index = next_index - 1
            entries = self.log.entries_from(next_index, limit=self.MAX_BATCH)
            request = AppendEntries(
                term=term,
                leader_id=self.node_id,
                prev_log_index=prev_index,
                prev_log_term=self.log.term_at(prev_index),
                entries=entries,
                leader_commit=self.commit_index,
            )
            sent = self.kernel.now
            try:
                reply = yield self.network.call(
                    peer, "append_entries" if entries else "heartbeat", request,
                    deadline=RPC_TIMEOUT, caller=self.node_id,
                )
            except RpcError:
                yield self.kernel.sleep(HEARTBEAT)
                continue
            if not self.alive or self.role != LEADER or self.current_term != term:
                return
            if reply.term > self.current_term:
                self._become_follower(reply.term)
                return
            self._peer_acks[peer] = sent  # lease: majority-contact proof
            if reply.success:
                if reply.match_index > self._match_index[peer]:
                    self._match_index[peer] = reply.match_index
                    self._advance_commit()
                self._next_index[peer] = max(self._next_index[peer], reply.match_index + 1)
                if self._next_index[peer] <= self.log.last_index:
                    continue  # more entries pending; keep streaming
                if request.leader_commit < self.commit_index:
                    continue  # the commit advanced in flight: send it
            else:
                self._next_index[peer] = max(1, min(reply.next_index_hint, next_index - 1))
                continue
            # Caught up: idle until new entries or the heartbeat interval.
            idle = self._idle[peer] = _Idle(self.kernel)
            yield idle

    def _send_snapshot(self, peer, term):
        """Ship the current snapshot to a lagging peer.

        Returns False when this replicator should exit (lost leadership
        or saw a higher term); True to continue the loop.
        """
        request = InstallSnapshot(
            term=term,
            leader_id=self.node_id,
            last_included_index=self.snapshot["index"],
            last_included_term=self.snapshot["term"],
            data=self.snapshot["state"],
        )
        sent = self.kernel.now
        try:
            reply = yield self.network.call(
                peer, "install_snapshot", request,
                deadline=RPC_TIMEOUT * 4,  # big payload
                caller=self.node_id,
            )
        except RpcError:
            yield self.kernel.sleep(HEARTBEAT)
            return self.alive and self.role == LEADER and self.current_term == term
        if not self.alive or self.role != LEADER or self.current_term != term:
            return False
        if reply.term > self.current_term:
            self._become_follower(reply.term)
            return False
        self._peer_acks[peer] = sent  # lease: majority-contact proof
        self._match_index[peer] = max(self._match_index[peer],
                                      reply.last_included_index)
        self._next_index[peer] = reply.last_included_index + 1
        self._advance_commit()
        return True

    def _advance_commit(self):
        if self.role != LEADER:
            return
        matches = sorted([self.log.last_index] + list(self._match_index.values()))
        majority_index = matches[len(matches) // 2]
        # len(matches) is cluster size; index len//2 is the highest index
        # replicated on a majority (self counts via log.last_index).
        if majority_index > self.commit_index and \
                self.log.term_at(majority_index) == self.current_term:
            self.commit_index = majority_index
            self._apply_committed()
            # etcd's raft sends the new index at once: an idle
            # replicator's last append carried the old one.
            self._poke_replicators()

    def _apply_committed(self):
        while self.last_applied < self.commit_index:
            self.last_applied += 1
            entry = self.log.entry_at(self.last_applied)
            duplicates_before = self.state_machine.duplicate_applies
            result = self.state_machine.apply(entry.command)
            self._m_applied.inc()
            if self.state_machine.duplicate_applies != duplicates_before:
                self._m_dup_applies.inc()
            waiter = self._waiters.pop(self.last_applied, None)
            if waiter is not None:
                term, event = waiter
                if event.triggered:
                    continue
                if entry.term == term:
                    event.succeed(result)
                else:
                    event.fail(NotLeader(self.node_id, self.leader_id))
        self._maybe_snapshot()

    def _maybe_snapshot(self):
        """Fold the applied prefix into a snapshot and compact the log."""
        if self.snapshot_threshold <= 0:
            return
        if self.last_applied - self.log.offset < self.snapshot_threshold:
            return
        self.snapshot = {
            "index": self.last_applied,
            "term": self.log.term_at(self.last_applied),
            "state": self.state_machine.to_snapshot(),
        }
        self.log.compact(self.last_applied)

    # ------------------------------------------------------------------
    # InstallSnapshot receiver (Raft §7)
    # ------------------------------------------------------------------

    def _on_install_snapshot(self, request):
        if request.term < self.current_term:
            return InstallSnapshotReply(term=self.current_term,
                                        follower_id=self.node_id,
                                        last_included_index=self.log.offset)
        self._become_follower(request.term, leader_id=request.leader_id)
        self._last_heartbeat = self.kernel.now
        if request.last_included_index <= self.commit_index:
            # Stale snapshot; we already have everything it contains.
            return InstallSnapshotReply(term=self.current_term,
                                        follower_id=self.node_id,
                                        last_included_index=self.commit_index)
        self.snapshot = {
            "index": request.last_included_index,
            "term": request.last_included_term,
            "state": request.data,
        }
        self.state_machine = KvStateMachine.from_snapshot(
            request.data, watch_hub=self.watch_hub
        )
        self.log.install_snapshot_boundary(request.last_included_index,
                                           request.last_included_term)
        self.commit_index = request.last_included_index
        self.last_applied = request.last_included_index
        return InstallSnapshotReply(term=self.current_term,
                                    follower_id=self.node_id,
                                    last_included_index=request.last_included_index)

    def _sweep_leases(self):
        if not self.is_leader:  # the term it was started for is over
            self._sweeper.stop()
            return
        now = self.kernel.now
        expired = [
            lease_id
            for lease_id, lease in self.state_machine.leases.items()
            if lease["expires_at"] <= now
        ]
        for lease_id in expired:
            index = self.log.append(
                self.current_term,
                {"op": "lease_expire", "lease_id": lease_id, "now": now},
            )
            self._waiters[index] = (self.current_term, self.kernel.event())
        if expired:
            self._poke_replicators()
            self._advance_commit()

    # ------------------------------------------------------------------
    # Local (non-RPC) watch registration
    # ------------------------------------------------------------------

    def watch(self, prefix):
        """Register a watch on this node; see :mod:`repro.raftkv.watch`."""
        if not self.alive:
            raise NotLeader(self.node_id, self.leader_id)
        return self.watch_hub.add(prefix)
