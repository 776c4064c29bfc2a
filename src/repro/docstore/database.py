"""Named databases of named collections."""

from .collection import Collection


class Database:
    """A namespace of collections, created on first access."""

    def __init__(self, name):
        self.name = name
        self._collections = {}

    def collection(self, name):
        coll = self._collections.get(name)
        if coll is None:
            coll = Collection(f"{self.name}.{name}")
            self._collections[name] = coll
        return coll

    def clone(self, new_name=None):
        """Deep copy of every collection (replica state transfer)."""
        copy = Database(new_name or self.name)
        for name, coll in self._collections.items():
            target = copy.collection(name)
            for field in coll._unique_indexes:
                target.create_index(field, unique=True)
            for field in coll._indexes:
                target.create_index(field)
            for doc in coll._documents.values():
                target.insert_one(doc)
        return copy

    def document_count(self):
        return sum(len(coll) for coll in self._collections.values())
