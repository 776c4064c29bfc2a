"""Object metadata, labels and selectors."""

import itertools

_uid_counter = itertools.count(1)


class ObjectMeta:
    """Name/labels/uid for every cluster resource; the name is the
    store key. Tenants are isolated by network policy and per-job
    volumes and prefixes (DESIGN.md "A parameter needs a caller")."""

    def __init__(self, name, labels=None, owner=None):
        if not name:
            raise ValueError("resources need a name")
        self.name = name
        self.labels = dict(labels or {})
        self.owner = owner  # (kind, name) of the controller that made this
        self.uid = f"uid-{next(_uid_counter)}"
        self.creation_time = None  # stamped by the API server
        self.resource_version = 0

    def __repr__(self):
        return f"<ObjectMeta {self.name}>"


def selector_matches(selector, labels):
    """True if every (k, v) in ``selector`` appears in ``labels``."""
    return all(labels.get(key) == value for key, value in selector.items())
