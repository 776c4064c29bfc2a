"""Errors for the cloud object store."""


class ObjectStoreError(Exception):
    """Base class for object-store errors."""


class NoSuchBucket(ObjectStoreError):
    """Bucket does not exist."""


class NoSuchKey(ObjectStoreError):
    """Object does not exist."""


class BucketExists(ObjectStoreError):
    """Bucket creation collided with an existing name."""


class AccessDenied(ObjectStoreError):
    """Credentials do not grant access to the bucket."""
