"""Unit tests for the consistent-hash ring (satellite 3 of ISSUE 10).

Covers the three properties the sharded API tier depends on: stable
assignment, bounded (≤ K/n-ish) key movement on replica add/remove,
and deterministic routing with no dict-order dependence — the same
ring built from a shuffled node list must route identically.
"""

import random
import subprocess
import sys
from pathlib import Path

from repro.grpcnet import ConsistentHashRing, LoadBalancer, stable_hash

REPO_ROOT = Path(__file__).resolve().parents[2]
KEYS = [f"tenant-{i:04d}" for i in range(2000)]
NODES = [f"api:dlaas-api-{i}" for i in range(1, 6)]


def ring_of(nodes, vnodes=None):
    ring = ConsistentHashRing()
    if vnodes is not None:
        ring.vnodes = vnodes
    for node in nodes:
        ring.add(node)
    return ring


def balancer_of(nodes, ring=False):
    lb = LoadBalancer("api", ring=ring)
    for node in nodes:
        lb.add(node)
    return lb


def owners(ring, keys):
    """Each key's owner: the first node of its ring order."""
    return {key: ring.ordered(key)[0] for key in keys}


class TestStableAssignment:
    def test_same_key_same_owner(self):
        ring = ring_of(NODES)
        for key in KEYS[:200]:
            seen = {ring.ordered(key)[0] for _ in range(5)}
            assert len(seen) == 1

    def test_every_key_owned_by_member(self):
        ring = ring_of(NODES)
        for key in KEYS:
            assert ring.ordered(key)[0] in NODES

    def test_distribution_is_roughly_even(self):
        ring = ring_of(NODES, vnodes=128)
        counts = {node: 0 for node in NODES}
        for key in KEYS:
            counts[ring.ordered(key)[0]] += 1
        expected = len(KEYS) / len(NODES)
        for node, count in counts.items():
            assert 0.5 * expected <= count <= 1.6 * expected, (node, counts)

    def test_empty_ring(self):
        ring = ConsistentHashRing()
        assert ring.ordered("anything") == []

    def test_ordered_covers_every_node_once(self):
        ring = ring_of(NODES)
        for key in KEYS[:100]:
            assert sorted(ring.ordered(key)) == sorted(NODES)


class TestBoundedMovement:
    def test_add_moves_at_most_slice(self):
        ring = ring_of(NODES, vnodes=128)
        before = owners(ring, KEYS)
        ring.add("api:dlaas-api-6")
        after = owners(ring, KEYS)
        moved = [k for k in KEYS if before[k] != after[k]]
        # Ideal movement is K/(n+1); allow 2x slack for vnode variance.
        assert len(moved) <= 2 * len(KEYS) / 6, len(moved)
        # Every moved key moved TO the new node, never between old ones.
        assert all(after[k] == "api:dlaas-api-6" for k in moved)

    def test_remove_moves_only_victims_keys(self):
        ring = ring_of(NODES, vnodes=128)
        before = owners(ring, KEYS)
        ring.remove(NODES[2])
        after = owners(ring, KEYS)
        moved = [k for k in KEYS if before[k] != after[k]]
        assert moved == [k for k in KEYS if before[k] == NODES[2]]
        assert len(moved) <= 2 * len(KEYS) / len(NODES), len(moved)

    def test_add_then_remove_is_identity(self):
        ring = ring_of(NODES)
        before = owners(ring, KEYS)
        ring.add("api:dlaas-api-9")
        ring.remove("api:dlaas-api-9")
        assert owners(ring, KEYS) == before


class TestDeterminism:
    def test_insertion_order_irrelevant(self):
        shuffled = list(NODES)
        random.Random(7).shuffle(shuffled)
        a = ring_of(NODES)
        b = ring_of(shuffled)
        assert owners(a, KEYS) == owners(b, KEYS)
        for key in KEYS[:50]:
            assert a.ordered(key) == b.ordered(key)

    def test_stable_hash_is_sha256_derived(self):
        # builtin hash() is salted per process; stable_hash must not be.
        import hashlib
        digest = hashlib.sha256(b"tenant-a").digest()
        assert stable_hash("tenant-a") == int.from_bytes(digest[:8], "big")

    def test_routing_identical_across_processes(self):
        # A child interpreter (fresh hash salt) must route identically.
        script = (
            "import sys; sys.path.insert(0, 'src')\n"
            "from repro.grpcnet import ConsistentHashRing\n"
            "ring = ConsistentHashRing()\n"
            "for node in [" + ", ".join(repr(n) for n in NODES) + "]:\n"
            "    ring.add(node)\n"
            "print(';'.join(ring.ordered(f'tenant-{i:04d}')[0] "
            "for i in range(100)))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True,
            text=True, check=True, cwd=REPO_ROOT,
        ).stdout.strip()
        ring = ring_of(NODES)
        local = ";".join(ring.ordered(f"tenant-{i:04d}")[0]
                         for i in range(100))
        assert out == local


class TestRingBalancer:
    def test_unkeyed_pick_stays_round_robin(self):
        lb = balancer_of(NODES, ring=True)
        assert lb.pick_order() == NODES
        assert lb.pick_order() == NODES[1:] + NODES[:1]

    def test_keyed_pick_is_ring_order(self):
        lb = balancer_of(NODES, ring=True)
        ring = ring_of(NODES)
        for key in KEYS[:50]:
            assert lb.pick_order(key=key) == ring.ordered(key)

    def test_keyed_pick_does_not_advance_cursor(self):
        lb = balancer_of(NODES, ring=True)
        lb.pick_order(key="tenant-a")
        assert lb.pick_order() == NODES

    def test_ringless_balancer_ignores_key(self):
        lb = balancer_of(NODES)
        assert lb.pick_order(key="tenant-a") == NODES

    def test_membership_tracks_add_remove(self):
        lb = balancer_of(NODES[:2], ring=True)
        lb.add(NODES[2])
        assert sorted(lb.pick_order(key="tenant-a")) == sorted(NODES[:3])
        lb.remove(NODES[0])
        assert sorted(lb.pick_order(key="tenant-a")) == sorted(NODES[1:3])
        for key in KEYS[:50]:
            assert lb.pick_order(key=key)[0] in NODES[1:3]
