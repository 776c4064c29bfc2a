"""Secondary indexes and the point-lookup planner.

The planner must be invisible: for every query shape, an indexed
collection returns exactly what the full scan returns — same documents,
same order. These tests drive both code paths over the Mongo quirks the
planner has to honor (None matches missing fields, scalars match inside
arrays, unhashable values fall to the overflow set).
"""

import pytest

from repro.docstore.collection import Collection
from repro.docstore.errors import DuplicateKeyError


def strip(docs):
    """Drop the auto-assigned _id (a global sequence, so the two
    collections' ids differ) before comparing result sets."""
    if isinstance(docs, dict):
        return {k: v for k, v in docs.items() if k != "_id"}
    return [{k: v for k, v in d.items() if k != "_id"} for d in docs]

DOCS = [
    {"job_id": "j-1", "status": "QUEUED", "tenant": "acme", "gpus": 2},
    {"job_id": "j-2", "status": "RUNNING", "tenant": "acme", "gpus": 4},
    {"job_id": "j-3", "status": "RUNNING", "tenant": "zeta"},  # no gpus
    {"job_id": "j-4", "status": None, "tenant": "zeta", "gpus": [1, 2]},
    {"job_id": "j-5", "status": ["RUNNING", "old"], "tenant": "acme",
     "gpus": {"a": 1}},  # list status, unhashable gpus
]


def make_pair():
    """The same data in an indexed and an unindexed collection (no
    ``create_index`` call: every query on it full-scans)."""
    indexed = Collection("jobs")
    indexed.create_index("job_id", unique=True)
    indexed.create_index("status")
    indexed.create_index("tenant")
    indexed.create_index("gpus")
    scan = Collection("jobs")
    for doc in DOCS:
        indexed.insert_one(dict(doc))
        scan.insert_one(dict(doc))
    return indexed, scan


QUERIES = [
    {},
    {"job_id": "j-2"},
    {"job_id": "missing"},
    {"status": "RUNNING"},           # must include the list-status doc
    {"status": None},                # must match missing AND explicit None
    {"tenant": "acme", "status": "RUNNING"},
    {"gpus": 2},                     # scalar matching inside the array doc
    {"gpus": {"$gte": 2}},           # operator query: planner falls back
    {"status": {"$eq": "QUEUED"}},   # $eq is plannable
    {"tenant": "zeta"},
]


@pytest.mark.parametrize("query", QUERIES, ids=[str(q) for q in QUERIES])
def test_planner_matches_full_scan(query):
    indexed, scan = make_pair()
    assert strip(indexed.find(query)) == strip(scan.find(query))


def test_planner_after_update():
    indexed, scan = make_pair()
    for coll in (indexed, scan):
        coll.update_one({"job_id": "j-1"}, {"$set": {"status": "RUNNING"}})
        coll.update_one({"job_id": "j-2"}, {"$set": {"tenant": "zeta"}})
    for query in ({"status": "RUNNING"}, {"tenant": "zeta"},
                  {"status": "RUNNING", "tenant": "acme"}):
        assert strip(indexed.find(query)) == strip(scan.find(query))
    # The old index entries must be gone.
    assert indexed.find({"tenant": "acme", "job_id": "j-2"}) == []


def test_unique_index_still_enforced():
    indexed, _scan = make_pair()
    with pytest.raises(DuplicateKeyError):
        indexed.insert_one({"job_id": "j-1"})


def test_find_sort_limit_skip_equivalence():
    indexed, scan = make_pair()
    kwargs = dict(sort=[("job_id", -1)], limit=2, skip=1)
    assert (strip(indexed.find({"tenant": "acme"}, **kwargs))
            == strip(scan.find({"tenant": "acme"}, **kwargs)))


class TestProjectionAndCopy:
    def test_projection_returns_only_selected_fields(self):
        indexed, _ = make_pair()
        doc = indexed.find_one({"job_id": "j-2"},
                               projection=["job_id", "status"])
        assert strip(doc) == {"job_id": "j-2", "status": "RUNNING"}

    def test_projection_copies_are_independent(self):
        indexed, _ = make_pair()
        doc = indexed.find_one({"job_id": "j-4"}, projection=["gpus"])
        doc["gpus"].append(99)
        assert indexed.find_one({"job_id": "j-4"})["gpus"] == [1, 2]

    def test_copy_false_returns_live_reference(self):
        indexed, _ = make_pair()
        raw = indexed.find_one({"job_id": "j-1"}, copy=False)
        stored = indexed.find({"job_id": "j-1"}, copy=False)[0]
        assert raw is stored

    def test_default_copy_protects_store(self):
        indexed, _ = make_pair()
        doc = indexed.find_one({"job_id": "j-1"})
        doc["status"] = "MUTATED"
        assert indexed.find_one({"job_id": "j-1"})["status"] == "QUEUED"
