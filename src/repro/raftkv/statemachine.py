"""Deterministic KV state machine applied to committed Raft entries.

Every node replays the same command stream and therefore reaches the
same state — including session bookkeeping (for exactly-once client
retries) and lease bookkeeping (time is carried *inside* commands, so
replay stays deterministic).
"""

from bisect import bisect_left, insort

from .errors import RaftError


class KvEvent:
    """A change notification delivered to watchers."""

    __slots__ = ("type", "key", "value", "revision")

    def __init__(self, type, key, value, revision):
        self.type = type
        self.key = key
        self.value = value
        self.revision = revision

    def __repr__(self):
        return f"<KvEvent {self.type} {self.key!r}@{self.revision}>"


class KvStateMachine:
    """The replicated store: versioned keys, sessions, leases."""

    def __init__(self, watch_hub=None):
        self.data = {}
        # Keys kept in sorted order (bisect-maintained), so range()
        # serves prefix scans from a window instead of re-sorting the
        # whole keyspace on every read.
        self._sorted_keys = []
        self.revision = 0
        self.key_revisions = {}
        # client_id -> (seq, cached result): exactly-once under retries.
        self.sessions = {}
        # Commands the session table swallowed: a retried client op that
        # reached the log twice. Volatile (not snapshotted) — it counts
        # this replica's dedup work, not replicated state.
        self.duplicate_applies = 0
        # lease_id -> {"ttl": float, "expires_at": float, "keys": set}
        self.leases = {}
        self.watch_hub = watch_hub

    # ------------------------------------------------------------------

    def apply(self, command):
        """Apply one committed command; returns its (cached-able) result."""
        client_id = command.get("client_id")
        seq = command.get("seq")
        if client_id is not None and seq is not None:
            cached = self.sessions.get(client_id)
            if cached is not None and cached[0] >= seq:
                self.duplicate_applies += 1
                return cached[1]
        result = self._dispatch(command)
        if client_id is not None and seq is not None:
            self.sessions[client_id] = (seq, result)
        return result

    def _dispatch(self, command):
        op = command["op"]
        handler = getattr(self, f"_apply_{op}", None)
        if handler is None:
            raise RaftError(f"unknown command op: {op!r}")
        return handler(command)

    # ------------------------------------------------------------------
    # Command handlers
    # ------------------------------------------------------------------

    def _apply_noop(self, _command):
        return {"ok": True}

    def _apply_put(self, command):
        key, value = command["key"], command["value"]
        lease_id = command.get("lease")
        if lease_id is not None:
            lease = self.leases.get(lease_id)
            if lease is None:
                return {"ok": False, "error": "lease not found"}
            lease["keys"].add(key)
        self.revision += 1
        if key not in self.data:
            insort(self._sorted_keys, key)
        self.data[key] = value
        self.key_revisions[key] = self.revision
        self._notify("put", key, value)
        return {"ok": True, "revision": self.revision}

    def _apply_delete(self, command):
        key = command["key"]
        if key not in self.data:
            return {"ok": True, "deleted": 0, "revision": self.revision}
        self.revision += 1
        self._remove_key(key)
        self.key_revisions.pop(key, None)
        self._notify("delete", key, None)
        return {"ok": True, "deleted": 1, "revision": self.revision}

    def _apply_delete_prefix(self, command):
        prefix = command["prefix"]
        victims = [key for key, _value in self.range(prefix)]
        for key in victims:
            self.revision += 1
            self._remove_key(key)
            self.key_revisions.pop(key, None)
            self._notify("delete", key, None)
        return {"ok": True, "deleted": len(victims), "revision": self.revision}

    def _apply_cas(self, command):
        key = command["key"]
        actual = self.data.get(key)
        if actual != command["expected"]:
            return {"ok": False, "actual": actual, "revision": self.revision}
        # A cas may attach the key to a lease (slice-ownership claims):
        # winning the swap and binding the lease is one atomic command.
        return self._apply_put({"key": key, "value": command["value"],
                                "lease": command.get("lease")})

    def _apply_lease_grant(self, command):
        lease_id, ttl, now = command["lease_id"], command["ttl"], command["now"]
        self.leases[lease_id] = {"ttl": ttl, "expires_at": now + ttl, "keys": set()}
        return {"ok": True, "lease_id": lease_id}

    def _apply_lease_keepalive(self, command):
        lease = self.leases.get(command["lease_id"])
        if lease is None:
            return {"ok": False, "error": "lease not found"}
        lease["expires_at"] = command["now"] + lease["ttl"]
        return {"ok": True}

    def _apply_lease_expire(self, command):
        # Proposed by the leader's lease sweeper; replay-safe because
        # the decision to expire was made once, at proposal time.
        lease = self.leases.get(command["lease_id"])
        if lease is None:
            return {"ok": True, "deleted": 0}
        if lease["expires_at"] > command["now"]:
            return {"ok": False, "error": "lease refreshed since proposal"}
        return self._revoke(command["lease_id"])

    def _remove_key(self, key):
        del self.data[key]
        del self._sorted_keys[bisect_left(self._sorted_keys, key)]

    def _revoke(self, lease_id):
        lease = self.leases.pop(lease_id, None)
        if lease is None:
            return {"ok": True, "deleted": 0}
        deleted = 0
        for key in sorted(lease["keys"]):
            if key in self.data:
                self.revision += 1
                self._remove_key(key)
                self.key_revisions.pop(key, None)
                self._notify("delete", key, None)
                deleted += 1
        return {"ok": True, "deleted": deleted}

    # ------------------------------------------------------------------
    # Reads (leader-local; not part of the replicated command stream)
    # ------------------------------------------------------------------

    def get_with_revision(self, key):
        if key not in self.data:
            return None, 0
        return self.data[key], self.key_revisions[key]

    def range(self, prefix):
        """All (key, value) pairs under ``prefix``, sorted by key."""
        keys = self._sorted_keys
        data = self.data
        out = []
        i = bisect_left(keys, prefix)
        n = len(keys)
        while i < n:
            key = keys[i]
            if not key.startswith(prefix):
                break
            out.append((key, data[key]))
            i += 1
        return out

    # ------------------------------------------------------------------
    # Snapshots (Raft log compaction)
    # ------------------------------------------------------------------

    def to_snapshot(self):
        """A deep, self-contained image of the replicated state."""
        from ..grpcnet.payload import deep_copy_payload

        return {
            "data": deep_copy_payload(self.data),
            "revision": self.revision,
            "key_revisions": dict(self.key_revisions),
            "sessions": deep_copy_payload(self.sessions),
            "leases": {
                lease_id: {"ttl": lease["ttl"], "expires_at": lease["expires_at"],
                           "keys": set(lease["keys"])}
                for lease_id, lease in self.leases.items()
            },
        }

    @classmethod
    def from_snapshot(cls, snapshot, watch_hub=None):
        from ..grpcnet.payload import deep_copy_payload

        sm = cls(watch_hub=watch_hub)
        sm.data = deep_copy_payload(snapshot["data"])
        sm._sorted_keys = sorted(sm.data)
        sm.revision = snapshot["revision"]
        sm.key_revisions = dict(snapshot["key_revisions"])
        sm.sessions = deep_copy_payload(snapshot["sessions"])
        sm.leases = {
            lease_id: {"ttl": lease["ttl"], "expires_at": lease["expires_at"],
                       "keys": set(lease["keys"])}
            for lease_id, lease in snapshot["leases"].items()
        }
        return sm

    # ------------------------------------------------------------------

    def _notify(self, type, key, value):
        if self.watch_hub is not None:
            self.watch_hub.dispatch(KvEvent(type, key, value, self.revision))
