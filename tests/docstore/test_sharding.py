"""Docstore sharding: placement, routed point ops, scatter-gather."""

import pytest

from repro.docstore import MongoShardSet, ShardedMongoClient, shard_index
from repro.grpcnet import LatencyModel, Network
from repro.sim import Kernel

from ..observers import Observers


@pytest.fixture
def kernel():
    return Kernel(seed=11)


@pytest.fixture
def observers(kernel):
    return Observers(kernel)


@pytest.fixture
def network(kernel, observers):
    return Network(kernel, observers.metrics,
                   latency=LatencyModel(base=0.001, jitter=0.0))


@pytest.fixture
def shard_set(kernel, network, observers):
    return MongoShardSet(kernel, network, observers.events, shards=3,
                         size=1).start()


@pytest.fixture
def client(kernel, network, shard_set, observers):
    return ShardedMongoClient(kernel, network, shard_set, observers.tracer,
                              caller="test")


def run(kernel, generator):
    return kernel.run_until_complete(kernel.spawn(generator))


JOB_IDS = [f"job-{i:05d}" for i in range(30)]


def seed_jobs(kernel, client):
    def inserts():
        for i, job_id in enumerate(JOB_IDS):
            yield from client.insert_one("jobs", {
                "job_id": job_id,
                "tenant": f"tenant-{i % 3}",
                "status": "QUEUED" if i % 2 else "COMPLETED",
                "created_at": float(i),
            })
    run(kernel, inserts())


class TestPlacement:
    def test_jobs_spread_across_shards(self, kernel, client, shard_set):
        seed_jobs(kernel, client)
        counts = [
            shard.primary().database.collection("jobs").count_documents()
            for shard in shard_set.shards
        ]
        assert sum(counts) == len(JOB_IDS)
        assert all(count > 0 for count in counts), counts

    def test_placement_matches_shard_index(self, kernel, client, shard_set):
        seed_jobs(kernel, client)
        for job_id in JOB_IDS:
            owner = shard_set.shards[shard_index(job_id, 3)]
            stored = owner.primary().database.collection("jobs").find_one(
                {"job_id": job_id})
            assert stored is not None, job_id

    def test_unsharded_collection_pinned_to_shard_zero(self, kernel, client,
                                                       shard_set):
        def work():
            yield from client.insert_one("counters",
                                         {"_id_name": "job-seq", "seq": 0})
        run(kernel, work())
        assert shard_set.shards[0].primary().database.collection(
            "counters").count_documents() == 1
        for shard in shard_set.shards[1:]:
            assert shard.primary().database.collection(
                "counters").count_documents() == 0


class TestRoutedPointOps:
    def test_find_one_by_job_id(self, kernel, client):
        seed_jobs(kernel, client)

        def work():
            doc = yield from client.find_one("jobs", {"job_id": "job-00007"})
            return doc
        doc = run(kernel, work())
        assert doc["tenant"] == "tenant-1"

    def test_claim_is_routed_and_exactly_once(self, kernel, client):
        seed_jobs(kernel, client)

        def claim():
            first = yield from client.find_one_and_update(
                "jobs", {"job_id": "job-00001", "status": "QUEUED"},
                {"$set": {"status": "DEPLOYING"}})
            second = yield from client.find_one_and_update(
                "jobs", {"job_id": "job-00001", "status": "QUEUED"},
                {"$set": {"status": "DEPLOYING"}})
            return first, second
        first, second = run(kernel, claim())
        assert first is not None and first["status"] == "DEPLOYING"
        assert second is None

    def test_update_one_without_key_scatters(self, kernel, client):
        seed_jobs(kernel, client)

        def work():
            matched, modified = yield from client.update_one(
                "jobs", {"tenant": "tenant-2", "job_id": "job-00002"},
                {"$set": {"note": "x"}})
            return matched, modified
        matched, modified = run(kernel, work())
        assert (matched, modified) == (1, 1)


class TestScatterGather:
    def test_tenant_listing_spans_shards(self, kernel, client):
        seed_jobs(kernel, client)

        def work():
            docs = yield from client.find("jobs", {"tenant": "tenant-0"},
                                          sort=[("created_at", 1)])
            return docs
        docs = run(kernel, work())
        assert [d["job_id"] for d in docs] == JOB_IDS[::3]

    def test_global_sort_skip_limit(self, kernel, client):
        seed_jobs(kernel, client)

        def work():
            docs = yield from client.find("jobs", {},
                                          sort=[("created_at", -1)],
                                          skip=2, limit=3)
            return docs
        docs = run(kernel, work())
        assert [d["job_id"] for d in docs] == ["job-00027", "job-00026",
                                               "job-00025"]
