"""Unit tests for the object store."""

import pytest

from repro.objectstore import (
    AccessDenied,
    BucketExists,
    NoSuchBucket,
    NoSuchKey,
    ObjectStore,
)
from repro.sim import Kernel, MetricsRegistry

CREDS = {"access_key": "AK", "secret": "SK"}
BAD_CREDS = {"access_key": "AK", "secret": "wrong"}


@pytest.fixture
def kernel():
    return Kernel(seed=0)


@pytest.fixture
def metrics():
    return MetricsRegistry()


def transferred(metrics, op):
    """Payload bytes the store's metric counts for ``op``."""
    return metrics.get("objectstore_transferred_bytes_total").labels(
        op=op).value


@pytest.fixture
def store(kernel, metrics):
    store = ObjectStore(kernel, metrics)
    store.link_bandwidth = 100
    store.request_latency = 0.0
    store.create_bucket("training-data", CREDS)
    return store


def run(kernel, gen):
    return kernel.run_until_complete(kernel.spawn(gen))


class TestBuckets:
    def test_create_and_list(self, store):
        assert store.bucket_names() == ["training-data"]

    def test_duplicate_bucket(self, store):
        with pytest.raises(BucketExists):
            store.create_bucket("training-data", CREDS)

    def test_missing_bucket(self, store):
        with pytest.raises(NoSuchBucket):
            store.head_object("ghost", "k", CREDS)


class TestObjects:
    def test_put_head(self, store):
        store.put_object("training-data", "imagenet/shard-0", CREDS, size=1000)
        obj = store.head_object("training-data", "imagenet/shard-0", CREDS)
        assert obj.size == 1000

    def test_credentials_enforced(self, store):
        store.put_object("training-data", "k", CREDS, size=1)
        with pytest.raises(AccessDenied):
            store.head_object("training-data", "k", BAD_CREDS)

    def test_missing_key(self, store):
        with pytest.raises(NoSuchKey):
            store.head_object("training-data", "ghost", CREDS)

    def test_list_with_prefix(self, store):
        for key in ("ckpt/1", "ckpt/2", "logs/a"):
            store.put_object("training-data", key, CREDS, size=1)
        assert store.list_objects("training-data", CREDS, prefix="ckpt/") == [
            "ckpt/1",
            "ckpt/2",
        ]

    def test_etags_unique(self, store):
        a = store.put_object("training-data", "a", CREDS, size=1)
        b = store.put_object("training-data", "b", CREDS, size=1)
        assert a.etag != b.etag


class TestTransfers:
    def test_download_takes_size_over_bandwidth(self, kernel, store, metrics):
        store.put_object("training-data", "k", CREDS, size=500)

        def scenario():
            yield from store.download("training-data", "k", CREDS)
            return kernel.now

        # bandwidth 100 B/s, 500 B -> 5 s
        assert run(kernel, scenario()) == pytest.approx(5.0)
        assert transferred(metrics, "download") == 500

    def test_upload_accounts_bytes(self, kernel, store, metrics):
        def scenario():
            yield from store.upload("training-data", "out", CREDS, size=300)

        run(kernel, scenario())
        assert transferred(metrics, "upload") == 300
        assert store.head_object("training-data", "out", CREDS).size == 300

    def test_request_latency_added(self, kernel):
        store = ObjectStore(kernel, MetricsRegistry())
        store.link_bandwidth = 100
        store.request_latency = 1.0
        store.create_bucket("b", CREDS)

        def scenario():
            yield from store.upload("b", "k", CREDS, size=100)
            return kernel.now

        assert run(kernel, scenario()) == pytest.approx(2.0)

    def test_explicit_bandwidth_override(self, kernel, store):
        store.put_object("training-data", "k", CREDS, size=1000)

        store.link_bandwidth = 1000

        def scenario():
            yield from store.download("training-data", "k", CREDS)
            return kernel.now

        assert run(kernel, scenario()) == pytest.approx(1.0)
