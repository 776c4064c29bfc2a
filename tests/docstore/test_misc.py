"""Edge-case tests: ObjectId, Database, find_one_and_update variants."""

import copy

import pytest

from repro.docstore import Collection, Database, ObjectId


class TestObjectId:
    def test_unique_and_ordered(self):
        first, second = ObjectId(), ObjectId()
        assert first != second
        assert str(first) < str(second)

    def test_hashable(self):
        oid = ObjectId()
        twin = copy.copy(oid)
        assert twin is not oid and twin == oid
        assert len({oid, twin}) == 1

    def test_str_is_24_hex(self):
        text = str(ObjectId())
        assert len(text) == 24
        int(text, 16)

    def test_invalid_value_rejected(self):
        # Ids come only from the counter: none can be forged from a value.
        with pytest.raises(TypeError):
            ObjectId("not-an-int")
        with pytest.raises(TypeError):
            ObjectId(1)

    def test_comparison_with_other_types(self):
        assert ObjectId() != "string"
        with pytest.raises(TypeError):
            ObjectId() < 5


class TestDatabase:
    def test_collections_created_on_access(self):
        db = Database("dlaas")
        coll = db.collection("jobs")
        assert coll is db.collection("jobs")
        assert coll.name == "dlaas.jobs"


class TestFindOneAndUpdate:
    def test_return_old_document(self):
        coll = Collection("t")
        coll.insert_one({"k": "a", "n": 1})
        old = coll.find_one_and_update({"k": "a"}, {"$inc": {"n": 1}},
                                       return_new=False)
        assert old["n"] == 1
        assert coll.find_one({})["n"] == 2

    def test_missing_returns_none(self):
        coll = Collection("t")
        assert coll.find_one_and_update({"k": "ghost"}, {"$set": {"x": 1}}) is None

    def test_returned_documents_are_copies(self):
        coll = Collection("t")
        coll.insert_one({"k": "a", "nested": {"x": 1}})
        doc = coll.find_one_and_update({"k": "a"}, {"$set": {"y": 2}})
        doc["nested"]["x"] = 99
        assert coll.find_one({})["nested"]["x"] == 1
