"""Consistent-hash ring for per-key endpoint routing (FfDL-style).

The sharded API tier routes every tenant's requests to one replica so
per-tenant state (its rate-limit token bucket) lives on a single
instance instead of being sliced across the pool.
The ring is the standard construction: each node is hashed onto the
unit circle at ``vnodes`` points, a key is owned by the first node
clockwise of its hash, and adding or removing one node moves only the
keys in the arcs it gains or loses — about ``K/n`` of them, never a
full reshuffle.

Determinism matters more here than in a production ring: routing
decisions land in the simulated timeline, so two processes building
the same ring must route identically. All positions come from
``hashlib.sha256`` (never the salted builtin ``hash``), ties break on
the node name, and iteration orders derive from the sorted position
array — no dict-order dependence anywhere.
"""

import bisect
import hashlib

# Ring positions per node (``ConsistentHashRing.vnodes``); a test sets
# the attribute on an empty ring to smooth its distribution.
VNODES = 64


def stable_hash(text):
    """A process-stable 64-bit hash of ``text`` (sha256 prefix)."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class ConsistentHashRing:
    """Hash ring over named nodes with virtual-node smoothing."""

    def __init__(self):
        self.vnodes = VNODES
        self._positions = []  # sorted list of (point, node)
        self._nodes = set()

    def __len__(self):
        return len(self._nodes)

    def _points(self, node):
        return [stable_hash(f"{node}#{i}") for i in range(self.vnodes)]

    def add(self, node):
        """Insert ``node`` at its ``vnodes`` ring positions (idempotent)."""
        if node in self._nodes:
            return self
        self._nodes.add(node)
        for point in self._points(node):
            # Tie-break on the node name so two nodes hashing onto the
            # same point order identically in every process.
            bisect.insort(self._positions, (point, node))
        return self

    def remove(self, node):
        """Remove ``node``; keys it owned move to their next successor."""
        if node not in self._nodes:
            return self
        self._nodes.discard(node)
        self._positions = [(p, n) for p, n in self._positions if n != node]
        return self

    def ordered(self, key):
        """Every node, in ring order from ``key``'s position.

        The first entry is the owner; the rest are its successors —
        the natural fail-over order when the owner is down (a key's
        requests spill to the same successor every time, keeping the
        spilled state together too).
        """
        if not self._positions:
            return []
        start = bisect.bisect_right(self._positions,
                                    (stable_hash(str(key)), ""))
        seen = set()
        out = []
        for offset in range(len(self._positions)):
            _point, node = self._positions[(start + offset)
                                           % len(self._positions)]
            if node not in seen:
                seen.add(node)
                out.append(node)
                if len(out) == len(self._nodes):
                    break
        return out
