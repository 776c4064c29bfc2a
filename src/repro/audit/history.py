"""Flight recorder for raftkv client operations.

Jepsen-style consistency checking needs a complete *client-side*
history: for every operation the invocation time, the response time,
and one of four outcomes —

* ``ok``    — the client saw a successful response,
* ``fail``  — the operation definitely did not take effect (a read
  that never completed, or a write whose every attempt was rejected
  before reaching a log),
* ``info``  — the outcome is unknown: some attempt reached the wire
  and may have applied even though the client saw no response
  (timeouts, retry-budget exhaustion, the client process dying
  mid-call),
* ``invoke`` — still pending.

The recorder is a plain in-memory append log fed by direct method
calls from :class:`repro.raftkv.client.EtcdClient` — no RPCs, no
kernel events, no RNG draws — so with recording enabled and no fault
injected the simulated timeline is bit-identical to a run without it
(the digest identity pinned by ``tests/integration/
test_timeline_pin.py``).

Two bookkeeping sets narrow the checker's model to what it can verify:
keys ever written with a lease attached (the lease sweeper deletes
them outside any client history) and prefixes hit by ``delete_prefix``
are marked *unauditable* and skipped by the
:class:`~repro.audit.auditor.ConsistencyAuditor`.
"""

from bisect import insort
from operator import attrgetter

__all__ = ["HistoryRecorder", "OpRecord"]

_invoke_seq = attrgetter("invoke_seq")


class OpRecord:
    """One client operation, from invocation to (maybe) response."""

    __slots__ = ("client", "op", "key", "args", "op_id", "status",
                 "result", "error", "invoke_time", "invoke_seq",
                 "response_time", "response_seq", "attempts")

    def __init__(self, client, op, key, args, op_id, invoke_time,
                 invoke_seq):
        self.client = client
        self.op = op
        self.key = key
        self.args = args
        self.op_id = op_id
        self.status = "invoke"
        self.result = None
        self.error = None
        self.invoke_time = invoke_time
        self.invoke_seq = invoke_seq
        self.response_time = None
        self.response_seq = None
        self.attempts = 0

    @property
    def pending(self):
        return self.status == "invoke"

    def to_doc(self):
        return {
            "client": self.client, "op": self.op, "key": self.key,
            "args": self.args, "op_id": self.op_id, "status": self.status,
            "result": self.result, "error": self.error,
            "invoke_time": self.invoke_time, "invoke_seq": self.invoke_seq,
            "response_time": self.response_time,
            "response_seq": self.response_seq, "attempts": self.attempts,
        }

    def __repr__(self):
        return (f"OpRecord({self.client} #{self.op_id} {self.op}"
                f"({self.key!r}) {self.status} @"
                f"[{self.invoke_time}, {self.response_time}])")


class HistoryRecorder:
    """Append-only log of client operations, indexed per key.

    Sequence numbers (``invoke_seq`` / ``response_seq``) give the
    checker an exact happened-before order: the simulation is
    single-threaded, so *A precedes B* iff A's response was recorded
    before B's invocation — strictly finer than comparing simulated
    timestamps, which collide freely at the same kernel tick.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.records = []
        self._by_key = {}
        self._next_seq = 0
        self._leased_keys = set()
        self._unmodeled_prefixes = []
        self._open_ranges = []  # (invoke time, invoke seq, prefix)

    # ------------------------------------------------------------------
    # Recording (called by EtcdClient; no RPCs, no kernel interaction)
    # ------------------------------------------------------------------

    def _seq(self):
        seq = self._next_seq
        self._next_seq = seq + 1
        return seq

    def invoke(self, client, op, key, args, op_id=None):
        record = OpRecord(client, op, key, args, op_id,
                          self.kernel.now, self._seq())
        self.records.append(record)
        self._by_key.setdefault(key, []).append(record)
        return record

    def _finish(self, record, status):
        if not record.pending:
            raise RuntimeError(f"operation completed twice: {record!r}")
        record.status = status
        record.response_time = self.kernel.now
        record.response_seq = self._seq()

    def complete(self, record, result):
        """The operation succeeded with a definite result."""
        record.result = result
        self._finish(record, "ok")

    def fail(self, record, error=None):
        """The operation definitely did not take effect."""
        record.error = repr(error) if error is not None else None
        self._finish(record, "fail")

    def info(self, record, error=None):
        """Outcome unknown: the operation *may* have taken effect."""
        record.error = repr(error) if error is not None else None
        self._finish(record, "info")

    def invoke_range(self, prefix):
        """A range read over ``prefix`` was sent. Which keys it observes
        is only known at the response, so until :meth:`complete_range`
        gets the returned token back every key under the prefix is
        :meth:`range_pending`."""
        token = (self.kernel.now, self._seq(), prefix)
        self._open_ranges.append(token)
        return token

    def complete_range(self, token, client, op_id, kvs, also=()):
        """The range read returned ``kvs`` (``None``: it failed, which
        records nothing). One ``ok`` ``get`` per pair, and one observing
        ``None`` per key of ``also`` the snapshot lacks, all invoked at
        the token's point and responding now; each is filed in
        invocation order among its key's other operations."""
        self._open_ranges.remove(token)
        if kvs is None:
            return
        invoke_time, invoke_seq, _prefix = token
        present = {key for key, _value in kvs}
        absent = [(key, None) for key in also if key not in present]
        for key, value in list(kvs) + absent:
            record = OpRecord(client, "get", key, None, op_id,
                              invoke_time, invoke_seq)
            self.records.append(record)
            insort(self._by_key.setdefault(key, []), record,
                   key=_invoke_seq)
            self.complete(record, value)

    # ------------------------------------------------------------------
    # Model scope
    # ------------------------------------------------------------------

    def mark_leased(self, key):
        """Lease-attached keys expire outside any client op; skip them."""
        self._leased_keys.add(key)

    def mark_prefix(self, prefix):
        """``delete_prefix`` mutates many keys in one op; skip them."""
        if prefix not in self._unmodeled_prefixes:
            self._unmodeled_prefixes.append(prefix)

    def auditable(self, key):
        if key in self._leased_keys:
            return False
        return not any(key.startswith(p) for p in self._unmodeled_prefixes)

    def range_pending(self, key):
        """Is a range read that may still file an observation of
        ``key`` (at its own, earlier invocation point) in flight?"""
        return any(key.startswith(prefix)
                   for _time, _seq, prefix in self._open_ranges)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def keys(self):
        return self._by_key.keys()

    def ops_for_key(self, key):
        """The append-only per-key record list (do not mutate)."""
        return self._by_key.get(key, ())

    def counts(self):
        out = {"ok": 0, "fail": 0, "info": 0, "invoke": 0}
        for record in self.records:
            out[record.status] += 1
        return out

    def __len__(self):
        return len(self.records)
