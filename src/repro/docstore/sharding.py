"""Docstore sharding keyed on ``job_id`` (ISSUE 10 tentpole, part c).

A :class:`MongoShardSet` is N independent replica sets; documents of a
*sharded* collection live on exactly one shard, chosen by the stable
hash of their shard key. :class:`ShardedMongoClient` presents the same
generator API as :class:`~repro.docstore.service.MongoClient` and
routes each operation:

* shard-key point operations (the control plane's hot path — job
  insert, status read, the QUEUED->DEPLOYING claim) go straight to the
  owning shard: one primary round-trip, exactly like today;
* cross-shard queries (tenant listings, status resyncs, admin
  aggregation) scatter to every shard and merge client-side — the only
  queries that pay for the fan-out are the ones that genuinely span
  the job space;
* unsharded collections (``counters``, ``events``, ``metering`` — low
  write volume, no per-job hot path) are pinned to shard 0, so the
  sequence counter stays a single document and the event flusher keeps
  one target.

Shard 0 keeps the classic ``mongo-<i>`` member names so existing
chaos hooks, health probes and flusher wiring stay valid; shard k>0
members are ``mongo-s<k>-<i>``.
"""

from .aggregate import aggregate as run_pipeline
from .errors import InvalidQuery
from .query import _MISSING, get_path
from .service import MongoClient, MongoReplicaSet

# collection -> shard-key field; everything else is pinned to shard 0.
SHARD_KEYS = {
    "jobs": "job_id",
    "models": "model_id",
}


def shard_index(value, shard_count):
    """Deterministic shard for a key value (sha256, not builtin hash)."""
    from ..grpcnet.hashring import stable_hash

    return stable_hash(str(value)) % shard_count


class MongoShardSet:
    """N replica sets, each owning a hash slice of the sharded keys."""

    def __init__(self, kernel, network, shards=2, size=3, prefix="mongo",
                 service_time=0.0005, events=None):
        if shards < 1:
            raise ValueError(f"shard count must be >= 1: {shards}")
        self.kernel = kernel
        self.network = network
        self.shard_count = shards
        self.shards = []
        for k in range(shards):
            shard_prefix = prefix if k == 0 else f"{prefix}-s{k}"
            self.shards.append(MongoReplicaSet(
                kernel, network, size=size, prefix=shard_prefix,
                service_time=service_time, events=events))

    def start(self):
        for shard in self.shards:
            shard.start()
        return self

    def replica_set(self, index):
        return self.shards[index]

    def all_members(self):
        """Every member of every shard (health probes, index setup)."""
        for shard in self.shards:
            yield from shard.members.values()

    def shard_for(self, collection, key_value):
        if SHARD_KEYS.get(collection) is None:
            return self.shards[0]
        return self.shards[shard_index(key_value, self.shard_count)]


def _merge_sort(documents, sort):
    """Client-side replay of Collection.find's sort semantics."""
    out = list(documents)
    for field, direction in reversed(sort):
        if direction not in (1, -1):
            raise InvalidQuery(f"sort direction must be 1 or -1: {direction}")
        out.sort(
            key=lambda d: ((v := get_path(d, field)) is _MISSING, v is None, v),
            reverse=direction == -1,
        )
    return out


def _merge_groups(spec, partials):
    """Combine per-shard ``$group`` partials into global groups.

    ``$count``/``$sum`` add, ``$push`` concatenates, ``$min``/``$max``
    re-reduce. ``$avg`` is not mergeable from per-shard averages (the
    counts are gone) — callers that need it must target one shard.
    """
    merged = {}
    order = []
    for doc in partials:
        marker = repr(doc["_id"])
        if marker not in merged:
            merged[marker] = dict(doc)
            order.append(marker)
            continue
        into = merged[marker]
        for name, accumulator in spec.items():
            if name == "_id":
                continue
            op = next(iter(accumulator))
            value = doc.get(name)
            if op in ("$count", "$sum"):
                into[name] = into[name] + value
            elif op == "$push":
                into[name] = into[name] + value
            elif op == "$min":
                values = [v for v in (into[name], value) if v is not None]
                into[name] = min(values) if values else None
            elif op == "$max":
                values = [v for v in (into[name], value) if v is not None]
                into[name] = max(values) if values else None
            else:
                raise InvalidQuery(
                    f"accumulator {op!r} cannot be merged across shards")
    return [merged[marker] for marker in order]


class ShardedMongoClient:
    """MongoClient-compatible facade over a :class:`MongoShardSet`.

    All methods are process generators — call with ``yield from``.
    Scatter operations visit shards in index order (deterministic
    timeline) and merge results client-side.
    """

    def __init__(self, kernel, network, shard_set, caller="mongo-client",
                 max_attempts=40, retry_delay=0.05, tracer=None):
        self.shard_set = shard_set
        self.caller = caller
        self._clients = [
            MongoClient(kernel, network, shard, caller=caller,
                        max_attempts=max_attempts, retry_delay=retry_delay,
                        tracer=tracer)
            for shard in shard_set.shards
        ]

    # Routing ----------------------------------------------------------

    def _routed(self, collection, query):
        """The single owning client, or None when the op must scatter."""
        key_field = SHARD_KEYS.get(collection)
        if key_field is None:
            return self._clients[0]
        if query:
            value = query.get(key_field)
            if isinstance(value, (str, int)):
                return self._clients[
                    shard_index(value, self.shard_set.shard_count)]
        return None

    # MongoClient API --------------------------------------------------

    def insert_one(self, collection, document, ctx=None):
        key_field = SHARD_KEYS.get(collection)
        if key_field is None or key_field not in document:
            client = self._clients[0]
        else:
            client = self._clients[
                shard_index(document[key_field], self.shard_set.shard_count)]
        result = yield from client.insert_one(collection, document, ctx=ctx)
        return result

    def find_one(self, collection, query=None, projection=None, ctx=None):
        client = self._routed(collection, query)
        if client is not None:
            doc = yield from client.find_one(collection, query,
                                             projection=projection, ctx=ctx)
            return doc
        for client in self._clients:
            doc = yield from client.find_one(collection, query,
                                             projection=projection, ctx=ctx)
            if doc is not None:
                return doc
        return None

    def find(self, collection, query=None, sort=None, limit=None, skip=0,
             projection=None, ctx=None):
        client = self._routed(collection, query)
        if client is not None:
            docs = yield from client.find(
                collection, query, sort=sort, limit=limit, skip=skip,
                projection=projection, ctx=ctx)
            return docs
        # Scatter-gather: fetch each shard's full matching set, then
        # re-apply sort/skip/limit over the merged list so pagination
        # is global, not per-shard.
        gathered = []
        for client in self._clients:
            docs = yield from client.find(collection, query, sort=sort,
                                          projection=projection, ctx=ctx)
            gathered.extend(docs)
        if sort:
            gathered = _merge_sort(gathered, sort)
        if skip:
            gathered = gathered[skip:]
        if limit is not None:
            gathered = gathered[:limit]
        return gathered

    def update_one(self, collection, query, update, upsert=False, ctx=None):
        client = self._routed(collection, query)
        if client is not None:
            result = yield from client.update_one(collection, query, update,
                                                  upsert=upsert, ctx=ctx)
            return result
        if upsert:
            raise InvalidQuery(
                f"cross-shard upsert on {collection!r} needs the shard key "
                f"{SHARD_KEYS.get(collection)!r} in the query")
        for client in self._clients:
            matched, modified = yield from client.update_one(
                collection, query, update, ctx=ctx)
            if matched:
                return matched, modified
        return 0, 0

    def find_one_and_update(self, collection, query, update, return_new=True,
                            ctx=None):
        client = self._routed(collection, query)
        if client is not None:
            doc = yield from client.find_one_and_update(
                collection, query, update, return_new=return_new, ctx=ctx)
            return doc
        for client in self._clients:
            doc = yield from client.find_one_and_update(
                collection, query, update, return_new=return_new, ctx=ctx)
            if doc is not None:
                return doc
        return None

    def delete_many(self, collection, query):
        client = self._routed(collection, query)
        if client is not None:
            deleted = yield from client.delete_many(collection, query)
            return deleted
        total = 0
        for client in self._clients:
            deleted = yield from client.delete_many(collection, query)
            total += deleted
        return total

    def count(self, collection, query=None):
        client = self._routed(collection, query)
        if client is not None:
            n = yield from client.count(collection, query)
            return n
        total = 0
        for client in self._clients:
            n = yield from client.count(collection, query)
            total += n
        return total

    def aggregate(self, collection, pipeline):
        if SHARD_KEYS.get(collection) is None:
            docs = yield from self._clients[0].aggregate(collection, pipeline)
            return docs
        # Split the pipeline at the stage that needs global state: each
        # shard runs the prefix, the suffix replays client-side on the
        # merged partials.
        split = len(pipeline)
        group_spec = None
        for i, stage in enumerate(pipeline):
            op = next(iter(stage)) if isinstance(stage, dict) and stage else None
            if op == "$group":
                split, group_spec = i + 1, stage["$group"]
                break
            if op in ("$sort", "$skip", "$limit"):
                split = i
                break
        prefix, suffix = list(pipeline[:split]), list(pipeline[split:])
        partials = []
        for client in self._clients:
            docs = yield from client.aggregate(collection, prefix)
            partials.extend(docs)
        merged = (_merge_groups(group_spec, partials)
                  if group_spec is not None else partials)
        return run_pipeline(merged, suffix) if suffix else merged

    def create_index(self, collection, field, unique=False):
        for client in self._clients:
            yield from client.create_index(collection, field, unique=unique)
