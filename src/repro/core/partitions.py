"""Partitioned LCM pool: leased ownership of job-id slices (ISSUE 10).

With ``PlatformConfig(lcm_slices=N)`` the job-id space is hashed into
N slices and every LCM instance runs a :class:`SliceManager` that
leases a subset of them through raftkv:

* each manager holds one lease (TTL ``LEASE_TTL``) and registers a
  member key under it;
* slice ownership is a ``cas(slice_key, None, address, lease=...)`` —
  winning the swap and binding the lease is one atomic Raft command,
  so two managers can never both own a slice;
* a manager claims unowned slices up to ``ceil(slices / members)``
  and releases its excess when new members join — ownership movement
  on membership change is bounded, mirroring the hash ring's K/n
  property at the LCM tier;
* when a partition crashes, its keepalives stop, the leader's lease
  sweeper expires the lease, the slice keys attached to it vanish,
  and a survivor's next tick adopts the orphaned slices
  (``SliceAdopted`` Warning event) — crash-failover is lease expiry
  plus re-claim, no coordinator.

Ownership gates which QUEUED jobs a partition's deploy reconciler
relists and which Guardians its GC collects; a ``deploy_job`` notify
that lands on the wrong partition is forwarded to the owner. None of
this is load-bearing for correctness — the Mongo QUEUED->DEPLOYING
claim already makes concurrent deploys exactly-once — it is the
*scaling* structure: each partition's work queue sees only its slice
of the job space.
"""

import math

from ..grpcnet.hashring import stable_hash
from ..sim.errors import ProcessKilled
from ..sim.periodic import Periodic, Polling

SLICE_PREFIX = "/lcm/slices/"
MEMBER_PREFIX = "/lcm/members/"
LEASE_TTL = 3.0  # a crashed partition's slices are orphaned this long
SLICE_TICK = 0.5  # keepalive + claim-reconcile cadence


def slice_of(job_id, slices):
    """The slice owning ``job_id`` (stable across processes)."""
    return stable_hash(job_id) % slices


def slice_key(index):
    return f"{SLICE_PREFIX}{index:04d}"


def member_key(address):
    return f"{MEMBER_PREFIX}{address}"


class SliceManager(Polling):
    """One LCM instance's view of (and claim on) the slice space."""

    def __init__(self, platform, address, etcd):
        self.platform = platform
        self.kernel = platform.kernel
        self.address = address
        self.etcd = etcd
        self.slices = platform.config.lcm_slices
        self.lease_id = f"lcm-slices:{address}"
        self.owned = set()
        self._owners = {}  # slice index -> address, as of the last tick
        self._loop = Periodic(
            self.kernel, f"slices:{address}", self._tick,
            SLICE_TICK, sleep_first=True,
            setup=self._register)
        self._g_owned = platform.metrics.gauge(
            "lcm_slices_owned", ("lcm",),
            help="Job-id slices this LCM partition currently owns")
        self._m_adopted = platform.metrics.counter(
            "lcm_slice_adoptions_total", ("lcm",),
            help="Orphaned slices adopted after a peer's lease expired")

    # ------------------------------------------------------------------
    # Lifecycle (driven by the LCM pod workload)
    # ------------------------------------------------------------------

    def stop(self):
        """Stop claiming; the lease is left to expire (TTL), which is
        also the crash path — survivors adopt within one sweep+tick."""
        self._loop.stop()
        self._g_owned.labels(lcm=self.address).set(0)

    # ------------------------------------------------------------------
    # Ownership queries (used by the LCM's reconcilers / RPC handlers)
    # ------------------------------------------------------------------

    def owns(self, job_id):
        return slice_of(job_id, self.slices) in self.owned

    def owner_of(self, job_id):
        """Best-known owner address for the job's slice (may be stale
        by one tick; callers treat it as a routing hint, not truth)."""
        return self._owners.get(slice_of(job_id, self.slices))

    # ------------------------------------------------------------------
    # The claim loop
    # ------------------------------------------------------------------

    def _register(self):
        yield from self.etcd.lease_grant(self.lease_id, LEASE_TTL)
        yield from self.etcd.put(member_key(self.address), True,
                                 lease=self.lease_id)

    def _tick(self):
        try:
            yield from self._claim()
        except ProcessKilled:
            raise
        except Exception:
            # Transient etcd unavailability (election, partition):
            # keep ticking; the lease TTL is the arbiter of life.
            pass

    def _claim(self):
        alive = yield from self.etcd.lease_keepalive(self.lease_id)
        if not alive.get("ok"):
            # Our lease expired under us (long partition): every claim
            # we held is gone. Start over as a fresh member.
            self.owned.clear()
            yield from self._register()

        members = yield from self.etcd.get_range(MEMBER_PREFIX)
        member_count = max(1, len(members))
        owners = {}
        kvs = yield from self.etcd.get_range(SLICE_PREFIX)
        for key, value in kvs:
            if value is not None:
                owners[int(key[len(SLICE_PREFIX):])] = value

        # The store is authoritative: drop anything we no longer hold
        # (lease loss observed by others, releases from a past tick).
        self.owned = {i for i, addr in owners.items() if addr == self.address}

        cap = math.ceil(self.slices / member_count)
        for index in range(self.slices):
            if len(self.owned) >= cap:
                break
            if index in owners:
                continue
            won = yield from self.etcd.cas(slice_key(index), None,
                                           self.address, lease=self.lease_id)
            if not won.get("ok"):
                continue
            self.owned.add(index)
            previous = self._owners.get(index)
            if previous is not None and previous != self.address:
                # The slice had a live owner last tick and its key is
                # gone: that peer's lease expired. This is adoption —
                # the crash-failover path — so it warns.
                self._m_adopted.labels(lcm=self.address).inc()
                self.platform.events.emit_event(
                    "Warning", "SliceAdopted", "Lcm", self.address,
                    message=f"adopted slice {index} from {previous} "
                            "(lease expired)")
            else:
                self.platform.events.emit_event(
                    "Normal", "SliceAssigned", "Lcm", self.address,
                    message=f"claimed slice {index}")
            owners[index] = self.address

        # New members joined and we are over the fair cap: release the
        # excess (highest indices first — deterministic) so joiners can
        # claim them. Bounded movement: only the overflow moves.
        if len(self.owned) > cap:
            for index in sorted(self.owned, reverse=True)[:len(self.owned) - cap]:
                yield from self.etcd.delete(slice_key(index))
                self.owned.discard(index)
                owners.pop(index, None)

        self._owners = owners
        self._g_owned.labels(lcm=self.address).set(len(self.owned))
