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


class RaftTimings:
    """Election and heartbeat timing (simulated seconds)."""

    def __init__(self, election_min=0.15, election_max=0.30,
                 heartbeat=0.05):
        if not 0 < election_min < election_max:
            raise ValueError("need 0 < election_min < election_max")
        if heartbeat >= election_min:
            raise ValueError("heartbeat must be well below the election timeout")
        self.election_min = election_min
        self.election_max = election_max
        self.heartbeat = heartbeat


class RaftNode:
    """One member of the replicated store."""

    MAX_BATCH = 64

    def __init__(self, kernel, network, node_id, peer_ids, timings=None,
                 tracer=None, snapshot_threshold=500, metrics=None,
                 events=None):
        self.kernel = kernel
        self.network = network
        self.node_id = node_id
        self.peer_ids = [p for p in peer_ids if p != node_id]
        self.timings = timings or RaftTimings()
        self.tracer = tracer
        self.events = events
        if metrics is not None:
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
        else:
            self._m_elections = self._m_commit_dur = self._m_applied = None
            self._m_dup_applies = None
        # Compact the log once this many entries have been applied
        # beyond the last snapshot; 0 disables compaction.
        self.snapshot_threshold = snapshot_threshold
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
        self._pokes = {}  # peer -> event, to wake the replicator early
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
        self.server.add_method("status", self._on_status)

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
        self._trace("start", term=self.current_term)
        return self

    def crash(self):
        """Kill the node: volatile state is lost, disk survives."""
        if not self.alive:
            return self
        self.alive = False
        self._trace("crash", term=self.current_term, role=self.role)
        self.role = FOLLOWER
        self.leader_id = None
        self.server.stop()
        self.watch_hub.close_all()
        self._waiters.clear()
        self._pokes.clear()
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

    def _trace(self, kind, **fields):
        if self.tracer is not None:
            self.tracer.emit(self.node_id, f"raft-{kind}", **fields)

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
            self._trace("step-down", term=self.current_term)
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
        self._trace("elected", term=self.current_term)
        if self._m_elections is not None:
            self._m_elections.inc()
        if self.events is not None:
            self.events.emit_event(
                "Normal", "LeaderElected", "EtcdNode", self.node_id,
                message=f"won election for term {self.current_term}")
        # Barrier no-op: lets this term commit entries from prior terms
        # (Raft §5.4.2) without waiting for a client write.
        self.log.append(self.current_term, {"op": "noop"})
        for peer in self.peer_ids:
            self._pokes[peer] = self.kernel.event()
            self._spawn(self._replicate(peer, self.current_term), f"repl:{peer}")
        self._spawn(self._lease_sweeper(self.current_term), "lease-sweeper")
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
        spread = self.timings.election_max - self.timings.election_min
        return self._last_heartbeat + self.timings.election_min + self._rng.random() * spread

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
        self._trace("election-start", term=term)
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
        reply = self._unwrap(reply)
        if not self.alive or self.role != CANDIDATE or self.current_term != request.term:
            return
        if reply.term > self.current_term:
            self._become_follower(reply.term)
            return
        if reply.vote_granted:
            votes.add(reply.voter_id)
            if len(votes) >= majority:
                self._become_leader()

    @staticmethod
    def _unwrap(reply):
        return reply

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
        # A generator that yields nothing while disk_stall is 0, so the
        # healthy replication timeline is untouched.
        if self.disk_stall and request.entries:
            yield self.kernel.sleep(self.disk_stall)
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
        if self._m_commit_dur is not None:
            self._m_commit_dur.observe(
                self.kernel.now - proposed)
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
        horizon = self.kernel.now - self.timings.election_min
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

    def _on_status(self, _request):
        return {
            "node": self.node_id,
            "role": self.role,
            "term": self.current_term,
            "leader": self.leader_id,
            "commit_index": self.commit_index,
            "log_length": self.log.last_index,
        }

    # ------------------------------------------------------------------
    # Leader: replication, commit, leases
    # ------------------------------------------------------------------

    def _poke_replicators(self):
        for peer, event in list(self._pokes.items()):
            if not event.triggered:
                event.succeed()

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
                yield self.kernel.sleep(self.timings.heartbeat)
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
            else:
                self._next_index[peer] = max(1, min(reply.next_index_hint, next_index - 1))
                continue
            # Caught up: idle until new entries or the heartbeat interval.
            poke = self.kernel.event()
            self._pokes[peer] = poke
            timer = self.kernel.sleep(self.timings.heartbeat)
            yield self.kernel.any_of([poke, timer])
            timer.cancel()

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
            yield self.kernel.sleep(self.timings.heartbeat)
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
        self._trace("snapshot-sent", peer=peer, index=reply.last_included_index)
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

    def _apply_committed(self):
        while self.last_applied < self.commit_index:
            self.last_applied += 1
            entry = self.log.entry_at(self.last_applied)
            duplicates_before = self.state_machine.duplicate_applies
            result = self.state_machine.apply(entry.command)
            if self._m_applied is not None:
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
        self._trace("snapshot", index=self.last_applied,
                    log_entries=len(self.log))

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
        self._trace("snapshot-installed", index=request.last_included_index)
        return InstallSnapshotReply(term=self.current_term,
                                    follower_id=self.node_id,
                                    last_included_index=request.last_included_index)

    def _lease_sweeper(self, term):
        while self.alive and self.role == LEADER and self.current_term == term:
            yield self.kernel.sleep(LEASE_SWEEP)
            if not (self.alive and self.role == LEADER and self.current_term == term):
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
