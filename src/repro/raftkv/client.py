"""Client facade over the replicated KV store.

Finds the leader (following redirect hints), retries across elections
and crashes, and tags every operation with a ``(client_id, op_id)``
pair — mutations carry it as the ``seq`` the state machine's session
table dedupes on (making retried writes exactly-once), reads carry it
for attribution — so a retried write that reached two logs is one
attributable operation, not two anonymous invocations. This is what
DLaaS components (controller, Guardian) use for status coordination.

When constructed with a ``history``
(:class:`repro.audit.history.HistoryRecorder`), every KV operation is
recorded Jepsen-style: ``ok`` on success, ``fail`` when it definitely
did not apply, ``info`` when a mutation's outcome is unknown (an
attempt reached the wire but the client saw no response — timeout,
retry exhaustion, or the client process dying mid-call); a range read
is recorded as the ``get`` of every key it observed. Recording is
direct method calls on the recorder; it adds no RPCs, sleeps, or RNG
draws, so the simulated timeline is bit-identical with it on or off.
"""

import itertools

from ..grpcnet.errors import RpcError, ServiceError
from .errors import NoLeader, NotLeader

_client_counter = itertools.count()
RETRY_DELAY = 0.1  # pause before retrying a round with no leader, sim s


class EtcdClient:
    """Leader-following, retrying KV client."""

    def __init__(self, kernel, network, cluster, client_id=None,
                 max_attempts=60, rpc_deadline=0.5, history=None):
        self.kernel = kernel
        self.network = network
        self.cluster = cluster
        self.client_id = client_id or f"etcd-client-{next(_client_counter)}"
        self.max_attempts = max_attempts
        self.retry_delay = RETRY_DELAY
        self.rpc_deadline = rpc_deadline
        self.history = history
        self._seq = 0
        self._leader_hint = None

    # ------------------------------------------------------------------
    # Public API (all are process generators: use ``yield from``)
    # ------------------------------------------------------------------

    def put(self, key, value, lease=None):
        command = {"op": "put", "key": key, "value": value}
        if lease is not None:
            command["lease"] = lease
            if self.history is not None:
                # Lease expiry deletes the key outside any client op;
                # the register model cannot audit it.
                self.history.mark_leased(key)
        return self._propose(command, record=("put", key, value))

    def delete(self, key):
        return self._propose({"op": "delete", "key": key},
                             record=("delete", key, None))

    def delete_prefix(self, prefix):
        if self.history is not None:
            # One op mutating many keys is outside the per-key model.
            self.history.mark_prefix(prefix)
        return self._propose({"op": "delete_prefix", "prefix": prefix})

    def cas(self, key, expected, value, lease=None):
        """Compare-and-swap; returns the state-machine result dict.

        With ``lease`` the winning swap atomically attaches the key to
        that lease, so a claimed key disappears when its claimant's
        lease expires — the slice-ownership primitive."""
        command = {"op": "cas", "key": key, "expected": expected,
                   "value": value}
        if lease is not None:
            command["lease"] = lease
            if self.history is not None:
                self.history.mark_leased(key)
        return self._propose(command, record=("cas", key, (expected, value)))

    def lease_grant(self, lease_id, ttl):
        return self._propose({"op": "lease_grant", "lease_id": lease_id,
                              "ttl": ttl, "now": self.kernel.now})

    def lease_keepalive(self, lease_id):
        return self._propose({"op": "lease_keepalive", "lease_id": lease_id,
                              "now": self.kernel.now})

    def get(self, key):
        """Linearizable read via the leader; returns value or None."""
        op_id = self._next_seq()
        response = yield from self._call_leader(
            "read", {"key": key, "op_id": op_id},
            record=("get", key, None), op_id=op_id)
        return response["value"]

    def get_range(self, prefix, also=()):
        """All (key, value) pairs under ``prefix`` via the leader: one
        snapshot of the leader's applied state.

        Recorded as one ``get`` per key returned plus one observing
        ``None`` per key of ``also`` (keys under ``prefix`` whose
        absence the caller acts on) that the snapshot lacks, all
        invoked when the call was and completed at its response. A
        range read that fails is not recorded: a lost read constrains
        nothing.
        """
        op_id = self._next_seq()
        history = self.history
        token = history.invoke_range(prefix) if history is not None else None
        kvs = None
        try:
            response = yield from self._call_leader("range", {"prefix": prefix})
            kvs = response["kvs"]
            return kvs
        finally:
            if token is not None:
                history.complete_range(token, self.client_id, op_id, kvs, also)

    def watch(self, prefix):
        """Register a watch on any live node.

        Watches are served from a single node's apply stream; if that
        node crashes the watch channel closes and the caller should
        re-register, mirroring a dropped etcd watch stream. To pin a
        watch to one member, call ``cluster.node(id).watch(prefix)``.
        """
        for node in self.cluster.nodes.values():
            if node.alive:
                return node.watch(prefix)
        raise NoLeader("no live node to serve the watch")

    # ------------------------------------------------------------------

    def _next_seq(self):
        self._seq += 1
        return self._seq

    def _candidates(self):
        ids = list(self.cluster.node_ids)
        if self._leader_hint in ids:
            ids.remove(self._leader_hint)
            ids.insert(0, self._leader_hint)
        return ids

    def _propose(self, command, record=None):
        command = dict(command)
        command["client_id"] = self.client_id
        op_id = self._next_seq()
        command["seq"] = op_id
        return self._call_leader("propose", command, record=record,
                                 op_id=op_id)

    def _call_leader(self, method, payload, record=None, op_id=None):
        rec = None
        if self.history is not None and record is not None:
            op, key, args = record
            rec = self.history.invoke(self.client_id, op, key, args,
                                      op_id=op_id)
        mutation = method == "propose"
        ambiguous = False   # some attempt reached the wire unresolved
        in_flight = False   # an RPC is on the wire right now
        try:
            last_error = None
            for attempt in range(self.max_attempts):
                if attempt:
                    yield self.kernel.sleep(self.retry_delay)
                for node_id in self._candidates():
                    if rec is not None:
                        rec.attempts += 1
                    try:
                        in_flight = True
                        response = yield self.network.call(
                            node_id, method, payload,
                            deadline=self.rpc_deadline,
                            caller=self.client_id,
                        )
                        in_flight = False
                        self._leader_hint = node_id
                        if rec is not None:
                            # The session table makes retried mutations
                            # exactly-once, so earlier ambiguous attempts
                            # collapse into this single ok outcome.
                            self._record_ok(rec, response)
                        return response
                    except ServiceError as exc:
                        if isinstance(exc.cause, NotLeader):
                            in_flight = False  # rejected: did not apply
                            last_error = exc.cause
                            if exc.cause.leader_hint:
                                self._leader_hint = exc.cause.leader_hint
                            continue
                        raise
                    except NotLeader as exc:
                        in_flight = False  # rejected: did not apply
                        last_error = exc
                        if exc.leader_hint:
                            self._leader_hint = exc.leader_hint
                        continue
                    except RpcError as exc:
                        in_flight = False
                        if mutation:
                            # Timed out / lost after send: the command
                            # may sit in a log and commit later.
                            ambiguous = True
                        last_error = exc
                        continue
            raise NoLeader(f"{method} failed after {self.max_attempts} attempts: {last_error!r}")
        except BaseException as exc:
            # Covers retry exhaustion (NoLeader), app errors, and the
            # client process being killed mid-call (GeneratorExit).
            if rec is not None and rec.pending:
                if mutation and (ambiguous or in_flight):
                    self.history.info(rec, exc)
                else:
                    self.history.fail(rec, exc)
            raise

    def _record_ok(self, rec, response):
        if rec.op == "get":
            self.history.complete(rec, response.get("value"))
        else:
            self.history.complete(rec, dict(response))
