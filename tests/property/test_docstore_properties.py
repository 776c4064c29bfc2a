"""Property-based tests for the document store."""

from hypothesis import given, settings, strategies as st

from repro.docstore import Collection, apply_update, matches
from repro.docstore.query import get_path, _MISSING

field_names = st.sampled_from(["a", "b", "c", "status", "n"])
scalars = st.one_of(st.integers(-100, 100), st.text(max_size=8), st.booleans(),
                    st.none())
documents = st.dictionaries(field_names, scalars, max_size=5)


class TestQueryProperties:
    @given(documents)
    def test_empty_query_matches_everything(self, doc):
        assert matches(doc, {})

    @given(documents)
    def test_document_matches_its_own_fields(self, doc):
        assert matches(doc, dict(doc))

    @given(documents, field_names, scalars)
    def test_eq_operator_agrees_with_implicit(self, doc, field, value):
        assert matches(doc, {field: value}) == matches(doc, {field: {"$eq": value}})

    @given(documents, field_names, scalars)
    def test_ne_is_negation_of_eq(self, doc, field, value):
        assert matches(doc, {field: {"$ne": value}}) != \
            matches(doc, {field: {"$eq": value}})

    @given(documents, field_names, st.integers(-100, 100))
    def test_gt_and_lte_partition(self, doc, field, bound):
        value = get_path(doc, field)
        if isinstance(value, bool) or not isinstance(value, int):
            return
        gt = matches(doc, {field: {"$gt": bound}})
        lte = matches(doc, {field: {"$lte": bound}})
        assert gt != lte

    @given(documents, field_names, scalars)
    def test_in_singleton_equals_eq(self, doc, field, value):
        assert matches(doc, {field: {"$in": [value]}}) == \
            matches(doc, {field: {"$eq": value}})

    @given(documents, st.lists(st.dictionaries(field_names, scalars, max_size=2),
                               min_size=1, max_size=3))
    def test_or_is_any_and_nor_is_none(self, doc, subqueries):
        individual = [matches(doc, q) for q in subqueries]
        assert matches(doc, {"$or": subqueries}) == any(individual)
        assert matches(doc, {"$nor": subqueries}) == (not any(individual))
        assert matches(doc, {"$and": subqueries}) == all(individual)


class TestUpdateProperties:
    @given(documents, field_names, scalars)
    def test_set_then_get(self, doc, field, value):
        updated = apply_update(doc, {"$set": {field: value}})
        assert updated[field] == value

    @given(documents, field_names, scalars)
    def test_set_does_not_mutate_original(self, doc, field, value):
        snapshot = dict(doc)
        apply_update(doc, {"$set": {field: value}})
        assert doc == snapshot

    @given(documents, field_names)
    def test_unset_removes(self, doc, field):
        updated = apply_update(doc, {"$unset": {field: ""}})
        assert field not in updated

    @given(documents, field_names, st.integers(-50, 50), st.integers(-50, 50))
    def test_inc_composes(self, doc, field, first, second):
        if field in doc and not isinstance(doc[field], int) or \
                isinstance(doc.get(field), bool):
            doc = dict(doc)
            doc.pop(field, None)
        once = apply_update(apply_update(doc, {"$inc": {field: first}}),
                            {"$inc": {field: second}})
        both = apply_update(doc, {"$inc": {field: first + second}})
        assert once[field] == both[field]

    @given(documents, field_names, st.lists(scalars, max_size=4))
    def test_push_appends_in_order(self, doc, field, values):
        doc = dict(doc)
        doc.pop(field, None)
        current = doc
        for value in values:
            current = apply_update(current, {"$push": {field: value}})
        assert current.get(field, []) == values

    @given(st.lists(scalars, min_size=1, max_size=5), field_names)
    def test_addtoset_idempotent(self, values, field):
        doc = {}
        for value in values:
            doc = apply_update(doc, {"$addToSet": {field: value}})
            doc = apply_update(doc, {"$addToSet": {field: value}})
        deduped = []
        for value in values:
            if value not in deduped:
                deduped.append(value)
        assert doc[field] == deduped


class TestCollectionProperties:
    @settings(max_examples=30)
    @given(st.lists(documents, max_size=12))
    def test_count_equals_len_find(self, docs):
        coll = Collection("t")
        for doc in docs:
            coll.insert_one(doc)
        assert coll.count_documents() == len(coll.find({})) == len(docs)

    @settings(max_examples=30)
    @given(st.lists(st.dictionaries(st.just("n"), st.integers(0, 20), min_size=1),
                    max_size=12))
    def test_sort_really_sorts(self, docs):
        coll = Collection("t")
        for doc in docs:
            coll.insert_one(doc)
        values = [d["n"] for d in coll.find({}, sort=[("n", 1)])]
        assert values == sorted(values)
