"""A document collection: CRUD, queries, sort/limit, and indexes.

Indexes come in two flavors. *Unique* indexes enforce a constraint and
double as point-lookup accelerators. *Secondary* (non-unique) indexes,
created with ``create_index(field)``, are equality indexes used by a
small query planner: a top-level ``{field: scalar}`` (or ``{"$eq": v}``)
condition on an indexed field narrows the scan to the index bucket for
that value, in insertion order, and every candidate is re-checked with
``matches()`` so operator semantics (array-contains, missing≡None) stay
exactly those of the full scan — the planner changes *where the
candidates come from*, never *which documents match* or their order.

Mongo quirks the index design must honor:

- a query for ``None`` matches documents where the field is missing, so
  missing fields are indexed under the ``None`` bucket;
- a scalar query value matches documents whose field is a *list
  containing* that value, so documents with unhashable (list/dict)
  values go into a per-index overflow set that is unioned into every
  candidate set.
"""

from .errors import DuplicateKeyError, InvalidQuery
from .objectid import ObjectId
from .query import _MISSING, get_path, matches
from .update import _deep_copy, apply_update


class _FieldIndex:
    """Equality index for one field: value → {doc_id}, plus an overflow
    set of doc ids whose value is unhashable (list/dict)."""

    __slots__ = ("buckets", "overflow")

    def __init__(self):
        self.buckets = {}
        self.overflow = {}

    def add(self, doc_id, value):
        if value is _MISSING:
            value = None  # a query for None matches missing fields
        try:
            bucket = self.buckets.get(value)
            if bucket is None:
                bucket = self.buckets[value] = {}
            bucket[doc_id] = None
        except TypeError:
            self.overflow[doc_id] = None

    def remove(self, doc_id, value):
        if value is _MISSING:
            value = None
        try:
            bucket = self.buckets.get(value)
        except TypeError:
            self.overflow.pop(doc_id, None)
            return
        if bucket is not None:
            bucket.pop(doc_id, None)
            if not bucket:
                del self.buckets[value]


class Collection:
    """An ordered bag of documents keyed by ``_id``.

    By default documents are deep-copied at the API boundary in both
    directions, so callers can never mutate stored state behind the
    store's back — the property a real out-of-process database gives
    you. Read methods accept ``copy=False`` for callers that guarantee
    the copy happens elsewhere (the RPC service layer copies responses
    once at the send boundary instead of once per read *and* per hop).
    """

    def __init__(self, name):
        self.name = name
        self._documents = {}
        self._unique_indexes = {}
        # Count of list/dict values per unique index: when non-zero the
        # point lookup can miss array-contains matches, so it is skipped.
        self._unique_nonscalar = {}
        self._indexes = {}
        # Monotone per-document sequence, assigned at insert: candidate
        # ids from an index are sorted by it to reproduce scan order.
        self._seqs = {}
        self._seq_counter = 0

    def __len__(self):
        return len(self._documents)

    # ------------------------------------------------------------------
    # Indexes
    # ------------------------------------------------------------------

    def create_index(self, field, unique=False):
        """Create an index on ``field``.

        Unique indexes enforce the constraint (and serve point lookups);
        non-unique indexes feed the equality query planner.
        """
        if not unique:
            index = _FieldIndex()
            for doc in self._documents.values():
                index.add(doc["_id"], get_path(doc, field))
            self._indexes[field] = index
            return
        seen = {}
        nonscalar = 0
        for doc in self._documents.values():
            value = get_path(doc, field)
            if value is _MISSING:
                continue
            marker = self._index_key(value)
            if marker in seen:
                raise DuplicateKeyError(field, value)
            seen[marker] = doc["_id"]
            nonscalar += isinstance(value, (list, dict))
        self._unique_indexes[field] = seen
        self._unique_nonscalar[field] = nonscalar

    @staticmethod
    def _index_key(value):
        if isinstance(value, list):
            return ("list", tuple(value))
        if isinstance(value, dict):
            return ("dict", tuple(sorted(value.items())))
        return value

    def _check_unique(self, doc, ignore_id=None):
        for field, seen in self._unique_indexes.items():
            value = get_path(doc, field)
            if value is _MISSING:
                continue
            holder = seen.get(self._index_key(value))
            if holder is not None and holder != ignore_id:
                raise DuplicateKeyError(field, value)

    def _index_doc(self, doc):
        doc_id = doc["_id"]
        for field, seen in self._unique_indexes.items():
            value = get_path(doc, field)
            if value is not _MISSING:
                seen[self._index_key(value)] = doc_id
                if isinstance(value, (list, dict)):
                    self._unique_nonscalar[field] += 1
        for field, index in self._indexes.items():
            index.add(doc_id, get_path(doc, field))

    def _unindex_doc(self, doc):
        doc_id = doc["_id"]
        for field, seen in self._unique_indexes.items():
            value = get_path(doc, field)
            if value is not _MISSING:
                seen.pop(self._index_key(value), None)
                if isinstance(value, (list, dict)):
                    self._unique_nonscalar[field] -= 1
        for field, index in self._indexes.items():
            index.remove(doc_id, get_path(doc, field))

    # ------------------------------------------------------------------
    # Query planning
    # ------------------------------------------------------------------

    def _candidate_ids(self, query):
        """Doc ids a planner-eligible query could match, in insertion
        order — or None when no index applies (full scan).

        Candidates are a superset of the true matches; callers re-filter
        with ``matches()``.
        """
        best = None
        best_size = None
        for field, condition in query.items():
            if field.startswith("$"):
                continue
            if isinstance(condition, dict):
                if len(condition) == 1 and "$eq" in condition:
                    value = condition["$eq"]
                else:
                    continue  # operator doc: not a point lookup
            else:
                value = condition
            nonscalar = isinstance(value, (list, dict))
            if not nonscalar and value is not None:
                seen = self._unique_indexes.get(field)
                if seen is not None and not self._unique_nonscalar.get(field):
                    try:
                        holder = seen.get(value)
                    except TypeError:
                        holder = None
                    return [holder] if holder is not None else []
            index = self._indexes.get(field)
            if index is None:
                continue
            if nonscalar:
                bucket = None  # list/dict values only ever live in overflow
            else:
                try:
                    bucket = index.buckets.get(value)
                except TypeError:
                    continue
            size = (len(bucket) if bucket else 0) + len(index.overflow)
            if best_size is None or size < best_size:
                best_size = size
                best = (bucket, index.overflow)
        if best is None:
            return None
        bucket, overflow = best
        ids = list(bucket) if bucket else []
        if overflow:
            ids.extend(overflow)
            ids = list(dict.fromkeys(ids))
        ids.sort(key=self._seqs.__getitem__)
        return ids

    def _find_docs(self, query):
        """Stored (uncopied) documents matching ``query``, in insertion
        order."""
        if not query:
            return list(self._documents.values())
        ids = self._candidate_ids(query)
        if ids is not None:
            documents = self._documents
            return [doc for doc_id in ids
                    if matches(doc := documents[doc_id], query)]
        return [doc for doc in self._documents.values() if matches(doc, query)]

    def _find_first(self, query):
        if query:
            ids = self._candidate_ids(query)
            if ids is not None:
                documents = self._documents
                for doc_id in ids:
                    doc = documents[doc_id]
                    if matches(doc, query):
                        return doc
                return None
        for doc in self._documents.values():
            if matches(doc, query):
                return doc
        return None

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def insert_one(self, document):
        doc = _deep_copy(document)
        doc.setdefault("_id", ObjectId())
        if doc["_id"] in self._documents:
            raise DuplicateKeyError("_id", doc["_id"])
        self._check_unique(doc)
        self._documents[doc["_id"]] = doc
        self._seq_counter += 1
        self._seqs[doc["_id"]] = self._seq_counter
        self._index_doc(doc)
        return doc["_id"]

    def insert_many(self, documents):
        return [self.insert_one(doc) for doc in documents]

    def update_one(self, query, update, upsert=False):
        """Update the first match; returns (matched, modified)."""
        doc = self._find_first(query)
        if doc is None:
            if upsert:
                seed = {k: v for k, v in query.items() if not k.startswith("$")
                        and not isinstance(v, dict)}
                self.insert_one(apply_update(seed, update))
                return (0, 1)
            return (0, 0)
        return (1, self._apply_to(doc, update))

    def update_many(self, query, update):
        docs = self._find_docs(query)
        modified = sum(self._apply_to(doc, update) for doc in docs)
        return (len(docs), modified)

    def replace_one(self, query, replacement, upsert=False):
        return self.update_one(query, replacement, upsert=upsert)

    def _apply_to(self, doc, update):
        new_doc = apply_update(doc, update)
        if new_doc == doc:
            return 0
        self._check_unique(new_doc, ignore_id=doc["_id"])
        self._unindex_doc(doc)
        self._documents[doc["_id"]] = new_doc
        self._index_doc(new_doc)
        return 1

    def find_one_and_update(self, query, update, return_new=True, copy=True):
        """Atomic read-modify-write; returns the doc (new or old) or None."""
        doc = self._find_first(query)
        if doc is None:
            return None
        before = doc
        self._apply_to(doc, update)
        after = self._documents[doc["_id"]]
        result = after if return_new else before
        # `before` needs no defensive copy: updates replace the stored
        # document wholesale, they never mutate it in place.
        return _deep_copy(result) if copy else result

    def delete_one(self, query):
        doc = self._find_first(query)
        if doc is None:
            return 0
        self._remove(doc)
        return 1

    def delete_many(self, query):
        docs = self._find_docs(query)
        for doc in docs:
            self._remove(doc)
        return len(docs)

    def _remove(self, doc):
        del self._documents[doc["_id"]]
        del self._seqs[doc["_id"]]
        self._unindex_doc(doc)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def _iter_docs(self):
        # Dict order is insertion order: updates replace values in
        # place, and a delete + reinsert of the same _id re-appends —
        # exactly the order the old explicit insertion-order list kept.
        return iter(self._documents.values())

    def find_one(self, query=None, projection=None, copy=True):
        doc = self._find_first(query or {})
        if doc is None:
            return None
        if projection is not None:
            keep = set(projection)
            keep.add("_id")
            if copy:
                return {k: _deep_copy(v) for k, v in doc.items() if k in keep}
            return {k: v for k, v in doc.items() if k in keep}
        return _deep_copy(doc) if copy else doc

    def find(self, query=None, sort=None, limit=None, skip=0, projection=None,
             copy=True):
        """Matching documents, optionally sorted/limited.

        ``sort`` is a list of ``(field, direction)`` with direction 1 or
        -1; ``projection`` is a list of field names to keep (plus _id).
        Projection is applied first, so only the selected fields are
        ever copied. ``copy=False`` returns the stored documents (or
        uncopied projections); callers must not mutate them.
        """
        out = self._find_docs(query or {})
        if sort:
            for field, direction in reversed(sort):
                if direction not in (1, -1):
                    raise InvalidQuery(f"sort direction must be 1 or -1: {direction}")
                out.sort(
                    key=lambda d: ((v := get_path(d, field)) is _MISSING, v is None, v),
                    reverse=direction == -1,
                )
        if skip:
            out = out[skip:]
        if limit is not None:
            out = out[:limit]
        if projection is not None:
            keep = set(projection)
            keep.add("_id")
            if copy:
                return [{k: _deep_copy(v) for k, v in doc.items() if k in keep}
                        for doc in out]
            return [{k: v for k, v in doc.items() if k in keep} for doc in out]
        if copy:
            return [_deep_copy(doc) for doc in out]
        return out

    def count_documents(self, query=None):
        return len(self._find_docs(query or {}))

    def aggregate(self, pipeline):
        """Run a Mongo-style aggregation pipeline over this collection."""
        from .aggregate import aggregate

        return aggregate(list(self._documents.values()), pipeline)

    def distinct(self, field, query=None):
        seen = []
        for doc in self._find_docs(query or {}):
            value = get_path(doc, field)
            if value is not _MISSING and value not in seen:
                seen.append(value)
        return seen
