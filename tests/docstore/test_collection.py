"""Unit tests for collections, updates and the replica set."""

import pytest

from repro.docstore import (
    Collection,
    DuplicateKeyError,
    InvalidUpdate,
    MongoClient,
    MongoReplicaSet,
    NoPrimary,
    ObjectId,
    apply_update,
)
from repro.grpcnet import LatencyModel, Network
from repro.sim import Kernel

from ..observers import Observers


@pytest.fixture
def coll():
    return Collection("test.jobs")


class TestInsertFind:
    def test_insert_assigns_id(self, coll):
        doc_id = coll.insert_one({"name": "a"})
        assert isinstance(doc_id, ObjectId)
        assert coll.find_one({"name": "a"})["_id"] == doc_id

    def test_insert_duplicate_id_rejected(self, coll):
        doc_id = coll.insert_one({"name": "a"})
        with pytest.raises(DuplicateKeyError):
            coll.insert_one({"_id": doc_id, "name": "b"})

    def test_returned_docs_are_copies(self, coll):
        coll.insert_one({"name": "a", "nested": {"x": 1}})
        doc = coll.find_one({})
        doc["nested"]["x"] = 999
        assert coll.find_one({})["nested"]["x"] == 1

    def test_stored_doc_insulated_from_caller_mutation(self, coll):
        source = {"name": "a", "list": [1]}
        coll.insert_one(source)
        source["list"].append(2)
        assert coll.find_one({})["list"] == [1]

    def test_find_sort_limit_skip(self, coll):
        for i in (3, 1, 2, 5, 4):
            coll.insert_one({"i": i})
        docs = coll.find({}, sort=[("i", 1)], skip=1, limit=2)
        assert [d["i"] for d in docs] == [2, 3]
        docs = coll.find({}, sort=[("i", -1)], limit=1)
        assert docs[0]["i"] == 5

    def test_multi_key_sort_stable(self, coll):
        coll.insert_one({"a": 1, "b": 2})
        coll.insert_one({"a": 1, "b": 1})
        coll.insert_one({"a": 0, "b": 9})
        docs = coll.find({}, sort=[("a", 1), ("b", 1)])
        assert [(d["a"], d["b"]) for d in docs] == [(0, 9), (1, 1), (1, 2)]

    def test_projection(self, coll):
        coll.insert_one({"a": 1, "b": 2, "c": 3})
        docs = coll.find({}, projection=["a"])
        assert set(docs[0]) == {"_id", "a"}


class TestUpdate:
    def test_set_and_inc(self, coll):
        coll.insert_one({"name": "a", "n": 1})
        matched, modified = coll.update_one({"name": "a"}, {"$set": {"x": 9}, "$inc": {"n": 2}})
        assert (matched, modified) == (1, 1)
        doc = coll.find_one({})
        assert doc["x"] == 9 and doc["n"] == 3

    def test_update_no_match(self, coll):
        assert coll.update_one({"name": "ghost"}, {"$set": {"x": 1}}) == (0, 0)

    def test_upsert_creates(self, coll):
        coll.update_one({"name": "new"}, {"$set": {"x": 1}}, upsert=True)
        doc = coll.find_one({"name": "new"})
        assert doc["x"] == 1

    def test_noop_update_reports_unmodified(self, coll):
        coll.insert_one({"name": "a", "x": 1})
        matched, modified = coll.update_one({"name": "a"}, {"$set": {"x": 1}})
        assert (matched, modified) == (1, 0)

    def test_push_pull_addtoset(self, coll):
        coll.insert_one({"name": "a"})
        coll.update_one({"name": "a"}, {"$push": {"tags": "x"}})
        coll.update_one({"name": "a"}, {"$addToSet": {"tags": "x"}})
        coll.update_one({"name": "a"}, {"$push": {"tags": "y"}})
        assert coll.find_one({})["tags"] == ["x", "y"]
        coll.update_one({"name": "a"}, {"$pull": {"tags": "x"}})
        assert coll.find_one({})["tags"] == ["y"]

    def test_unset_and_rename(self, coll):
        coll.insert_one({"name": "a", "old": 1, "gone": 2})
        coll.update_one({}, {"$unset": {"gone": ""}, "$rename": {"old": "new"}})
        doc = coll.find_one({})
        assert "gone" not in doc and "old" not in doc and doc["new"] == 1

    def test_min_max(self, coll):
        coll.insert_one({"v": 5})
        coll.update_one({}, {"$min": {"v": 3}})
        assert coll.find_one({})["v"] == 3
        coll.update_one({}, {"$max": {"v": 10}})
        assert coll.find_one({})["v"] == 10

    def test_replacement_keeps_id(self, coll):
        doc_id = coll.insert_one({"name": "a", "x": 1})
        coll.update_one({"name": "a"}, {"name": "b"})
        doc = coll.find_one({})
        assert doc["_id"] == doc_id and doc["name"] == "b" and "x" not in doc

    def test_cannot_update_id(self, coll):
        coll.insert_one({"name": "a"})
        with pytest.raises(InvalidUpdate):
            coll.update_one({}, {"$set": {"_id": ObjectId()}})

    def test_mixed_update_rejected(self):
        with pytest.raises(InvalidUpdate):
            apply_update({"a": 1}, {"$set": {"b": 2}, "c": 3})

    def test_find_one_and_update_atomic_claim(self, coll):
        # The pattern the LCM uses to claim work exactly once.
        coll.insert_one({"job": "j1", "claimed": False})
        first = coll.find_one_and_update({"job": "j1", "claimed": False},
                                         {"$set": {"claimed": True}})
        second = coll.find_one_and_update({"job": "j1", "claimed": False},
                                          {"$set": {"claimed": True}})
        assert first is not None and second is None

    def test_dotted_set_creates_intermediate(self, coll):
        coll.insert_one({"name": "a"})
        coll.update_one({}, {"$set": {"metrics.images_per_sec": 42.0}})
        assert coll.find_one({})["metrics"]["images_per_sec"] == 42.0


class TestUniqueIndex:
    def test_unique_index_blocks_duplicates(self, coll):
        coll.create_index("job_id", unique=True)
        coll.insert_one({"job_id": "j1"})
        with pytest.raises(DuplicateKeyError):
            coll.insert_one({"job_id": "j1"})

    def test_unique_index_on_existing_duplicates_fails(self, coll):
        coll.insert_one({"job_id": "j1"})
        coll.insert_one({"job_id": "j1"})
        with pytest.raises(DuplicateKeyError):
            coll.create_index("job_id", unique=True)

    def test_update_into_conflict_rejected(self, coll):
        coll.create_index("job_id", unique=True)
        coll.insert_one({"job_id": "j1"})
        coll.insert_one({"job_id": "j2"})
        with pytest.raises(DuplicateKeyError):
            coll.update_one({"job_id": "j2"}, {"$set": {"job_id": "j1"}})


class TestReplicaSet:
    def setup_method(self):
        self.kernel = Kernel(seed=3)
        self.observers = observers = Observers(self.kernel)
        self.network = Network(self.kernel, observers.metrics,
                               latency=LatencyModel(0.001, 0.0))
        self.rs = MongoReplicaSet(self.kernel, self.network, observers.events,
                                  size=3).start()
        self.client = MongoClient(self.kernel, self.network, self.rs,
                                  observers.tracer)

    def run(self, gen):
        return self.kernel.run_until_complete(self.kernel.spawn(gen))

    def test_write_visible_after_read(self):
        def scenario():
            yield from self.client.insert_one("jobs", {"name": "j1"})
            doc = yield from self.client.find_one("jobs", {"name": "j1"})
            return doc

        assert self.run(scenario())["name"] == "j1"

    def test_write_replicated_to_secondaries(self):
        def scenario():
            yield from self.client.insert_one("jobs", {"name": "j1"})

        self.run(scenario())
        for member in self.rs.members.values():
            assert member.database.collection("jobs").count_documents() == 1

    def test_failover_to_next_member(self):
        def scenario():
            yield from self.client.insert_one("jobs", {"name": "before"})
            self.rs.member("mongo-0").crash()
            yield from self.client.insert_one("jobs", {"name": "after"})
            doc = yield from self.client.find_one("jobs", {"name": "after"})
            return doc

        assert self.run(scenario())["name"] == "after"
        assert self.rs.primary_id() == "mongo-1"

    def test_majority_loss_blocks_writes(self):
        self.rs.member("mongo-1").crash()
        self.rs.member("mongo-2").crash()

        def scenario():
            yield from self.client.insert_one("jobs", {"name": "j"})

        client = MongoClient(self.kernel, self.network, self.rs,
                             self.observers.tracer)
        client.max_attempts, client.retry_delay = 3, 0.01

        def fast_scenario():
            yield from client.insert_one("jobs", {"name": "j"})

        with pytest.raises(NoPrimary):
            self.run(fast_scenario())

    def test_recovered_primary_resyncs_then_leads(self):
        def scenario():
            self.rs.member("mongo-0").crash()
            yield from self.client.insert_one("jobs", {"name": "during"})
            self.rs.member("mongo-0").restart()
            # Initial sync in progress: mongo-1 still leads.
            yield self.kernel.sleep(0.05)
            mid = self.rs.primary_id()
            yield self.kernel.sleep(2.0)
            return mid, self.rs.primary_id()

        mid, final = self.run(scenario())
        assert mid == "mongo-1"
        assert final == "mongo-0"
        # Crucially, the recovered leader has the write it missed.
        member = self.rs.member("mongo-0")
        assert len(member.database.collection("jobs").find(
            {"name": "during"})) == 1

    def test_restart_without_primary_serves_own_data(self):
        def scenario():
            yield from self.client.insert_one("jobs", {"name": "kept"})
            for member_id in self.rs.member_ids:
                self.rs.member(member_id).crash()
            self.rs.member("mongo-2").restart()
            yield self.kernel.sleep(0.5)
            return self.rs.primary_id()

        assert self.run(scenario()) == "mongo-2"
        coll = self.rs.member("mongo-2").database.collection("jobs")
        assert len(coll.find({"name": "kept"})) == 1
