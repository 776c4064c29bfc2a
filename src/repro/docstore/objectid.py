"""Deterministic document identifiers.

Real ObjectIds embed wall-clock time and randomness; both would break
simulation determinism, so ids here are a process-wide counter rendered
in a Mongo-ish 24-hex-character shape.
"""

import itertools

_counter = itertools.count(1)


class ObjectId:
    """Opaque, hashable document identifier."""

    __slots__ = ("_value",)

    def __init__(self):
        self._value = next(_counter)

    def __eq__(self, other):
        return isinstance(other, ObjectId) and self._value == other._value

    def __hash__(self):
        return hash(("ObjectId", self._value))

    def __str__(self):
        return f"{self._value:024x}"

    def __repr__(self):
        return f"ObjectId({str(self)!r})"
