"""Document store: the simulated MongoDB.

DLaaS keeps every job's metadata (manifest, statuses, timestamps) in
MongoDB, written before the submission is acknowledged (paper §III.c).
This package provides collections with Mongo-style queries and updates,
unique indexes, and a majority-write replica set over the RPC fabric.
"""

from .collection import Collection
from .database import Database
from .errors import DocstoreError, DuplicateKeyError, InvalidQuery, InvalidUpdate, NoPrimary
from .objectid import ObjectId
from .query import matches
from .service import MongoClient, MongoMember, MongoReplicaSet
from .sharding import SHARD_KEYS, MongoShardSet, ShardedMongoClient, shard_index
from .update import apply_update, is_update_document

__all__ = [
    "Collection",
    "Database",
    "DocstoreError",
    "DuplicateKeyError",
    "InvalidQuery",
    "InvalidUpdate",
    "MongoClient",
    "MongoMember",
    "MongoReplicaSet",
    "MongoShardSet",
    "NoPrimary",
    "ObjectId",
    "SHARD_KEYS",
    "ShardedMongoClient",
    "apply_update",
    "is_update_document",
    "matches",
    "shard_index",
]
