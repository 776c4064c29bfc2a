"""Cloud object store: training data in, checkpoints and results out."""

from .errors import (
    AccessDenied,
    BucketExists,
    NoSuchBucket,
    NoSuchKey,
    ObjectStoreError,
)
from .store import GBIT, Bucket, ObjectStore, StoredObject

__all__ = [
    "AccessDenied",
    "Bucket",
    "BucketExists",
    "GBIT",
    "NoSuchBucket",
    "NoSuchKey",
    "ObjectStore",
    "ObjectStoreError",
    "StoredObject",
]
