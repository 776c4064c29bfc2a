"""The simulated cloud object store (IBM Cloud Object Store stand-in).

Training data streams from here into learners on every epoch, and
checkpoints/trained models are written back (paper §II, §III.g). The
store models credentialed buckets, object metadata + payloads, and
transfer times over a bounded link — the 1GbE interconnect the paper's
evaluation uses.
"""

from .errors import AccessDenied, BucketExists, NoSuchBucket, NoSuchKey

GBIT = 125_000_000  # bytes/second for 1 Gbit/s
# The store's link and per-request latency (``ObjectStore.link_bandwidth``
# and ``.request_latency``, bytes per sim second and sim seconds).
LINK_BANDWIDTH = GBIT
REQUEST_LATENCY = 0.02


class StoredObject:
    """Object metadata plus (optionally) an inline payload."""

    __slots__ = ("key", "size", "payload", "etag", "created")

    def __init__(self, key, size, payload, etag, created):
        self.key = key
        self.size = size
        self.payload = payload
        self.etag = etag
        self.created = created


class Bucket:
    """A credentialed namespace of objects."""

    def __init__(self, name, credentials):
        self.name = name
        self.credentials = credentials
        self.objects = {}

    def authorize(self, credentials):
        if credentials != self.credentials:
            raise AccessDenied(f"bad credentials for bucket {self.name!r}")


class ObjectStore:
    """Buckets + objects + a transfer-time model."""

    def __init__(self, kernel, metrics):
        self.kernel = kernel
        self.link_bandwidth = LINK_BANDWIDTH
        self.request_latency = REQUEST_LATENCY
        self._buckets = {}
        self._etag_counter = 0
        self._m_transfer = metrics.histogram(
            "objectstore_transfer_duration_seconds", ("op",),
            help="Object upload/download wall time incl. request latency")
        self._m_bytes = metrics.counter(
            "objectstore_transferred_bytes_total", ("op",),
            help="Payload bytes moved over the store link")

    # ------------------------------------------------------------------
    # Buckets
    # ------------------------------------------------------------------

    def create_bucket(self, name, credentials):
        if name in self._buckets:
            raise BucketExists(name)
        bucket = Bucket(name, credentials)
        self._buckets[name] = bucket
        return bucket

    def bucket_names(self):
        return sorted(self._buckets)

    def _bucket(self, name):
        bucket = self._buckets.get(name)
        if bucket is None:
            raise NoSuchBucket(name)
        return bucket

    # ------------------------------------------------------------------
    # Metadata operations (instant apart from request latency, which the
    # generator variants below account for)
    # ------------------------------------------------------------------

    def put_object(self, bucket_name, key, credentials, size, payload=None):
        bucket = self._bucket(bucket_name)
        bucket.authorize(credentials)
        self._etag_counter += 1
        obj = StoredObject(key, size, payload, f"etag-{self._etag_counter}",
                           self.kernel.now)
        bucket.objects[key] = obj
        return obj

    def head_object(self, bucket_name, key, credentials):
        bucket = self._bucket(bucket_name)
        bucket.authorize(credentials)
        obj = bucket.objects.get(key)
        if obj is None:
            raise NoSuchKey(f"{bucket_name}/{key}")
        return obj

    def list_objects(self, bucket_name, credentials, prefix=""):
        bucket = self._bucket(bucket_name)
        bucket.authorize(credentials)
        return sorted(k for k in bucket.objects if k.startswith(prefix))

    # ------------------------------------------------------------------
    # Transfers (process generators: they take simulated time)
    # ------------------------------------------------------------------

    def transfer_time(self, size):
        return self.request_latency + size / self.link_bandwidth

    def upload(self, bucket_name, key, credentials, size, payload=None):
        """Upload an object of ``size`` bytes; returns the StoredObject."""
        started = self.kernel.now
        yield self.kernel.sleep(self.transfer_time(size))
        obj = self.put_object(bucket_name, key, credentials, size, payload)
        self._record("upload", started, size)
        return obj

    def download(self, bucket_name, key, credentials):
        """Download an object; returns the StoredObject after the wait."""
        started = self.kernel.now
        obj = self.head_object(bucket_name, key, credentials)
        yield self.kernel.sleep(self.transfer_time(obj.size))
        self._record("download", started, obj.size)
        return obj

    def _record(self, op, started, size):
        self._m_transfer.labels(op=op).observe(self.kernel.now - started)
        self._m_bytes.labels(op=op).inc(size)
