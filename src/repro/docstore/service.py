"""MongoDB as a service: replica set over the RPC fabric.

DLaaS stores all job metadata in MongoDB *before* acknowledging a
submission (paper §III.c), so metadata durability matters. The replica
set here is deliberately simple compared to the Raft store: a fixed
member list, writes accepted by the primary and synchronously copied to
a majority of live secondaries, and failover to the lowest-id live
member — enough to exercise the durability path without duplicating the
consensus machinery already built in :mod:`repro.raftkv`.
"""

from ..grpcnet import Server
from ..grpcnet.errors import RpcError, ServiceError
from .database import Database
from .errors import NoPrimary

# A rejoining member's initial sync: a fixed transfer set-up plus a
# per-document copy cost, simulated seconds.
SYNC_BASE_TIME = 0.2
SYNC_PER_DOC = 0.0005


class MongoMember:
    """One replica-set member: a Database behind an RPC server."""

    def __init__(self, kernel, network, member_id, replica_set, service_time=0.0005):
        self.kernel = kernel
        self.member_id = member_id
        self.replica_set = replica_set
        self.database = Database(member_id)
        self.alive = False
        self.syncing = False
        # Gray fault: seconds every write op hangs in "fsync" before it
        # succeeds. Reads are untouched and the member stays alive, so
        # health probes keep passing while writes through this member
        # silently slow down. 0.0 (healthy) adds no sleeps at all.
        self.disk_stall = 0.0
        # Reads return uncopied documents (copy=False) and the RPC
        # server deep-copies the response once at the send boundary —
        # one copy per query instead of one per read plus implicit
        # sharing per hop.
        self.server = Server(kernel, network, member_id, service_time=service_time,
                             copy_responses=True)
        self.server.add_method("command", self._on_command)
        self.server.add_method("replicate", self._on_replicate)
        self.server.add_method("is_primary", lambda _r: {"primary": self.is_primary})

    @property
    def is_primary(self):
        return self.alive and self.replica_set.primary_id() == self.member_id

    def start(self):
        if not self.alive:
            self.alive = True
            self.server.start()
            if self.replica_set.events is not None:
                self.replica_set.events.emit_event(
                    "Normal", "MongoMemberUp", "MongoMember", self.member_id,
                    message="member serving")
        return self

    def crash(self, lose_data=False):
        """Stop the member; ``lose_data`` models disk loss, not just crash."""
        if self.alive:
            self.alive = False
            self.server.stop()
            if self.replica_set.events is not None:
                self.replica_set.events.emit_event(
                    "Warning", "MongoMemberDown", "MongoMember", self.member_id,
                    message="data lost" if lose_data else "member crashed")
        if lose_data:
            self.database = Database(self.member_id)
        return self

    def restart(self):
        """Rejoin the set: state-transfer from the primary, then serve.

        A crashed member's data is stale — it missed every write made
        while it was down. Serving (or worse, becoming primary) with
        stale data would diverge the set, so the member first performs
        an initial sync: after a transfer delay it takes a consistent
        copy of the current primary's database at a single simulated
        instant, and only then comes up. With no live primary to sync
        from, it comes up as-is (it IS the freshest data available).
        """
        if self.alive or self.syncing:
            return self
        primary = self.replica_set.primary()
        if primary is None or primary is self:
            return self.start()
        self.syncing = True
        delay = SYNC_BASE_TIME + SYNC_PER_DOC * primary.database.document_count()
        self.kernel.spawn(self._initial_sync(delay), name=f"{self.member_id}:sync")
        return self

    def _initial_sync(self, delay):
        yield self.kernel.sleep(delay)
        self.syncing = False
        source = self.replica_set.primary()
        if source is not None and source is not self:
            # Copy + go-live in the same instant: no write can land
            # between the consistent copy and this member serving.
            self.database = source.database.clone(new_name=self.member_id)
        self.start()

    # ------------------------------------------------------------------

    def _execute(self, request):
        coll = self.database.collection(request["collection"])
        op = request["op"]
        # Read ops are marked copy-elided: the server's send-boundary
        # copy is the single serialization point (reads never yield
        # between the lookup and the response, so no write can slip in
        # between the two).
        if op == "insert_one":
            return {"inserted_id": coll.insert_one(request["document"])}
        if op == "find_one":
            return {"document": coll.find_one(request.get("query"),
                                              projection=request.get("projection"),
                                              copy=False)}
        if op == "find":
            return {
                "documents": coll.find(
                    request.get("query"),
                    sort=request.get("sort"),
                    limit=request.get("limit"),
                    skip=request.get("skip", 0),
                    projection=request.get("projection"),
                    copy=False,
                )
            }
        if op == "update_one":
            matched, modified = coll.update_one(
                request["query"], request["update"], upsert=request.get("upsert", False)
            )
            return {"matched": matched, "modified": modified}
        if op == "update_many":
            matched, modified = coll.update_many(request["query"], request["update"])
            return {"matched": matched, "modified": modified}
        if op == "find_one_and_update":
            return {
                "document": coll.find_one_and_update(
                    request["query"], request["update"],
                    return_new=request.get("return_new", True),
                    copy=False,
                )
            }
        if op == "delete_one":
            return {"deleted": coll.delete_one(request["query"])}
        if op == "delete_many":
            return {"deleted": coll.delete_many(request["query"])}
        if op == "count":
            return {"count": coll.count_documents(request.get("query"))}
        if op == "aggregate":
            return {"documents": coll.aggregate(request["pipeline"])}
        if op == "create_index":
            coll.create_index(request["field"], unique=request.get("unique", False))
            return {"ok": True}
        raise ValueError(f"unknown docstore op {op!r}")

    _WRITE_OPS = frozenset({
        "insert_one", "update_one", "update_many", "find_one_and_update",
        "delete_one", "delete_many", "create_index",
    })

    def _on_command(self, request):
        if not self.is_primary:
            raise NoPrimary(f"{self.member_id} is not primary")
        if self.disk_stall and request["op"] in self._WRITE_OPS:
            yield self.kernel.sleep(self.disk_stall)
        result = self._execute(request)
        if request["op"] in self._WRITE_OPS:
            yield from self.replica_set.fan_out(self.member_id, request)
        return result

    def _on_replicate(self, request):
        # Secondaries apply the primary's write stream verbatim. (A
        # generator that yields nothing when disk_stall is 0, so the
        # healthy replication timeline is untouched.)
        if self.disk_stall and request["op"] in self._WRITE_OPS:
            yield self.kernel.sleep(self.disk_stall)
        return self._execute(request)


class MongoReplicaSet:
    """A fixed-membership replica set with majority write concern."""

    def __init__(self, kernel, network, size=3, prefix="mongo",
                 service_time=0.0005, events=None):
        if size < 1:
            raise ValueError("replica set size must be >= 1")
        self.kernel = kernel
        self.network = network
        self.events = events
        self.members = {}
        for i in range(size):
            member_id = f"{prefix}-{i}"
            self.members[member_id] = MongoMember(
                kernel, network, member_id, self, service_time=service_time,
            )

    def start(self):
        for member in self.members.values():
            member.start()
        return self

    @property
    def member_ids(self):
        return list(self.members)

    def member(self, member_id):
        return self.members[member_id]

    def primary_id(self):
        """Lowest-id live member acts as primary (deterministic failover)."""
        live = [m for m in self.members.values() if m.alive]
        if not live:
            return None
        return min(m.member_id for m in live)

    def primary(self):
        primary_id = self.primary_id()
        return self.members[primary_id] if primary_id else None

    def fan_out(self, primary_id, request):
        """Primary-side synchronous replication to live secondaries.

        Requires acks from a majority of the *configured* set (counting
        the primary), the condition under which a write survives any
        single-member loss.
        """
        needed = len(self.members) // 2 + 1
        acks = 1  # the primary itself
        for member_id, member in self.members.items():
            if member_id == primary_id or not member.alive:
                continue
            try:
                yield self.network.call(member_id, "replicate", request,
                                        deadline=0.25, caller=primary_id)
                acks += 1
            except RpcError:
                continue
        if acks < needed:
            raise NoPrimary(
                f"write not durable: {acks}/{needed} acks in replica set"
            )
        return acks


class MongoClient:
    """Client facade; finds the primary and retries across failover.

    All methods are process generators — call with ``yield from``.
    """

    def __init__(self, kernel, network, replica_set, caller="mongo-client",
                 max_attempts=40, retry_delay=0.05, tracer=None):
        self.kernel = kernel
        self.network = network
        self.replica_set = replica_set
        self.caller = caller
        self.max_attempts = max_attempts
        self.retry_delay = retry_delay
        self.tracer = tracer

    def _command(self, request, ctx=None):
        span = None
        if self.tracer is not None and ctx is not None:
            span = self.tracer.start_span(
                f"mongo.{request['op']}", component=self.caller, parent=ctx,
                collection=request.get("collection"))
        last_error = None
        try:
            for attempt in range(self.max_attempts):
                if attempt:
                    yield self.kernel.sleep(self.retry_delay)
                for member_id in self.replica_set.member_ids:
                    try:
                        response = yield self.network.call(
                            member_id, "command", request, deadline=0.5,
                            caller=self.caller
                        )
                        if span is not None:
                            span.end("ok")
                        return response
                    except ServiceError as exc:
                        if isinstance(exc.cause, NoPrimary):
                            last_error = exc.cause
                            continue
                        raise
                    except RpcError as exc:
                        last_error = exc
                        continue
            raise NoPrimary(
                f"no primary after {self.max_attempts} attempts: {last_error!r}")
        except BaseException:
            if span is not None:
                span.end("error")
            raise

    # Convenience wrappers -------------------------------------------------

    def insert_one(self, collection, document, ctx=None):
        response = yield from self._command(
            {"op": "insert_one", "collection": collection, "document": document},
            ctx=ctx,
        )
        return response["inserted_id"]

    def find_one(self, collection, query=None, projection=None, ctx=None):
        response = yield from self._command(
            {"op": "find_one", "collection": collection, "query": query or {},
             "projection": projection},
            ctx=ctx,
        )
        return response["document"]

    def find(self, collection, query=None, sort=None, limit=None, skip=0,
             projection=None, ctx=None):
        response = yield from self._command({
            "op": "find", "collection": collection, "query": query or {},
            "sort": sort, "limit": limit, "skip": skip,
            "projection": projection,
        }, ctx=ctx)
        return response["documents"]

    def update_one(self, collection, query, update, upsert=False, ctx=None):
        response = yield from self._command({
            "op": "update_one", "collection": collection,
            "query": query, "update": update, "upsert": upsert,
        }, ctx=ctx)
        return response["matched"], response["modified"]

    def find_one_and_update(self, collection, query, update, return_new=True,
                            ctx=None):
        response = yield from self._command({
            "op": "find_one_and_update", "collection": collection,
            "query": query, "update": update, "return_new": return_new,
        }, ctx=ctx)
        return response["document"]

    def delete_many(self, collection, query):
        response = yield from self._command(
            {"op": "delete_many", "collection": collection, "query": query}
        )
        return response["deleted"]

    def count(self, collection, query=None):
        response = yield from self._command(
            {"op": "count", "collection": collection, "query": query or {}}
        )
        return response["count"]

    def aggregate(self, collection, pipeline):
        response = yield from self._command(
            {"op": "aggregate", "collection": collection, "pipeline": pipeline}
        )
        return response["documents"]

    def create_index(self, collection, field, unique=False):
        yield from self._command({
            "op": "create_index", "collection": collection,
            "field": field, "unique": unique,
        })
