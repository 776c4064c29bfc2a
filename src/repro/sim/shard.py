"""Partitioned simulation: conservative-lookahead sharding.

The kernel was built single-loop; this module lets a simulation be
*partitioned* into shards, each owning a private :class:`Kernel` (its
own clock, heap, RNG streams and tracing context) and communicating
with other shards **only** through explicit boundary messages with a
declared minimum latency — the *lookahead*. Because every cross-shard
message arrives at least ``lookahead`` after it was sent, shards can
execute an entire window of simulated time independently and still
merge into one deterministic global timeline.

Synchronization protocol (synchronous conservative windows, a bounded-
lag/YAWNS variant of null-message CMB):

1. The coordinator computes ``T`` — the global lower bound on the time
   stamp of any future event: the minimum over all shards' next local
   event times and all in-flight boundary-message timestamps.
2. Every in-flight message is delivered (scheduled on its destination
   kernel at its timestamp, in ``(ts, src, seq)`` order — a total,
   execution-independent order).
3. Every shard runs all local events with ``time < T + lookahead``.
   Any message sent during this window carries ``ts >= send_time +
   lookahead >= T + lookahead``, i.e. it lands strictly beyond the
   window — no shard can ever receive a message from its past.
4. Outboxes are collected; repeat until every shard's program reports
   completion and no messages are in flight.

Step 3 is what multiprocessing parallelizes: windows are computed from
global state only, so the event order inside each shard — and hence the
merged timeline — is identical whether the shards run interleaved on
one worker or concurrently on eight. That property is asserted by
``tests/property/test_shard_determinism.py``.

Payloads cross the boundary serialized exactly once (:meth:`ShardPort.
send` pickles at enqueue; the receiving handler unpickles once), the
multiprocessing analogue of the PR-5 single-copy RPC discipline — and
it also guarantees shards share no mutable state even on the inline
executor.
"""

import hashlib
import multiprocessing
import pickle

from .errors import SimError
from .kernel import Kernel


class BoundaryMessage:
    """One serialized payload crossing a shard boundary.

    ``payload`` is pickled bytes (serialized once at send). Messages
    are globally ordered by ``(ts, src, seq)``; ``seq`` is the sender's
    private counter, so the order never depends on execution timing.
    """

    __slots__ = ("ts", "src", "dst", "seq", "kind", "payload")

    def __init__(self, ts, src, dst, seq, kind, payload):
        self.ts = ts
        self.src = src
        self.dst = dst
        self.seq = seq
        self.kind = kind
        self.payload = payload

    @property
    def order_key(self):
        return (self.ts, self.src, self.seq)

    def __repr__(self):
        return (f"<boundary {self.kind} s{self.src}->s{self.dst} "
                f"@{self.ts:.6f} #{self.seq}>")


class ShardPort:
    """A shard's only doorway to the rest of the simulation.

    Owned by exactly one kernel (``kernel.shard`` is bound to it) and
    holds the per-shard counters that monitoring publishes as
    ``shard_boundary_messages_total`` / ``shard_lookahead_stalls_total``
    / ``shard_merge_lag_seconds``.
    """

    def __init__(self, kernel, shard_id, num_shards, lookahead):
        if lookahead <= 0:
            raise ValueError(f"lookahead must be positive: {lookahead}")
        if not 0 <= shard_id < num_shards:
            raise ValueError(f"shard_id {shard_id} out of range 0..{num_shards - 1}")
        self.kernel = kernel
        self.shard_id = shard_id
        self.num_shards = num_shards
        self.lookahead = lookahead
        self._outbox = []
        self._handlers = {}
        self._seq = 0
        # Perf/protocol counters (scraped by repro.monitoring).
        self.messages_sent = 0
        self.messages_received = 0
        self.lookahead_stalls = 0
        self.merge_lag = 0.0
        self.windows_run = 0
        # Boundary messages generated during the post-completion settle
        # run — routing has stopped, so they are dropped, and counted:
        # silently losing even a late fire-and-forget response would
        # make protocol bugs invisible.
        self.messages_dropped = 0
        kernel.shard = self

    # ------------------------------------------------------------------
    # Sending and receiving
    # ------------------------------------------------------------------

    def on(self, kind, handler):
        """Register ``handler(src_shard, payload)`` for message ``kind``."""
        if kind in self._handlers:
            raise ValueError(f"handler already registered for {kind!r}")
        self._handlers[kind] = handler
        return self

    def send(self, dst, kind, payload, delay=None):
        """Enqueue a boundary message to shard ``dst``.

        ``delay`` defaults to the lookahead and may never undercut it —
        that floor is what makes the window protocol conservative. The
        payload is pickled here, exactly once.
        """
        if dst == self.shard_id:
            raise SimError("boundary message to own shard (use local events)")
        if not 0 <= dst < self.num_shards:
            raise SimError(f"unknown destination shard {dst}")
        delay = self.lookahead if delay is None else delay
        if delay < self.lookahead:
            raise SimError(
                f"boundary delay {delay} undercuts lookahead {self.lookahead}")
        self._seq += 1
        message = BoundaryMessage(
            self.kernel.now + delay, self.shard_id, dst, self._seq, kind,
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
        self._outbox.append(message)
        self.messages_sent += 1
        return message

    def deliver(self, message):
        """Schedule an incoming message on the local kernel (coordinator
        calls this at window boundaries; ``message.ts`` is always in the
        local future — the protocol guarantees it)."""
        handler = self._handlers.get(message.kind)
        if handler is None:
            raise SimError(f"shard {self.shard_id}: no handler for "
                           f"boundary kind {message.kind!r}")
        payload = pickle.loads(message.payload)
        src = message.src
        self.kernel._schedule_at(message.ts, lambda: handler(src, payload))
        self.messages_received += 1

    def drain_outbox(self):
        outbox, self._outbox = self._outbox, []
        return outbox

    def counters(self):
        return {
            "messages_sent": self.messages_sent,
            "messages_received": self.messages_received,
            "lookahead_stalls": self.lookahead_stalls,
            "windows_run": self.windows_run,
            "messages_dropped": self.messages_dropped,
        }


class _ShardRun:
    """One shard built and running inside a worker (or inline).

    ``spec`` is ``(builder, args, kwargs)`` with a module-level
    ``builder(slot, *args, **kwargs)`` returning a *program*: an object
    exposing ``kernel``, ``port``, a ``done`` property, ``settle_time()``
    (the deterministic tail-run target, valid once done) and
    ``result()`` (picklable).
    """

    def __init__(self, shard_id, spec, num_shards, lookahead):
        builder, args, kwargs = spec
        self.shard_id = shard_id
        slot = ShardSlot(shard_id, num_shards, lookahead)
        self.program = builder(slot, *args, **kwargs)
        self.kernel = self.program.kernel
        self.port = self.program.port

    def poll(self):
        return (self.kernel.peek_time(), bool(self.program.done))

    def run_window(self, start, end, messages):
        for message in messages:
            self.port.deliver(message)
        self.port.merge_lag = max(0.0, start - self.kernel.now)
        ran = self.kernel.run_window(end)
        self.port.windows_run += 1
        if ran == 0 and self.kernel.peek_time() is not None:
            # Held back purely by the global window bound: a lookahead
            # stall (the shard had work, just not safely executable yet).
            self.port.lookahead_stalls += 1
        return (self.kernel.peek_time(), bool(self.program.done),
                ran, self.port.drain_outbox())

    def settle(self):
        target = self.program.settle_time()
        if target is not None and target > self.kernel.now:
            self.kernel.run(until=target)
        self.port.messages_dropped += len(self.port.drain_outbox())
        return self.program.result(), self.port.counters()


class ShardSlot:
    """The shard-shaped hole a program builder fills.

    Builders create their own :class:`Kernel` (seed, debug flag —
    the kernel is theirs) and call :meth:`bind` to attach the boundary
    port.
    """

    __slots__ = ("shard_id", "num_shards", "lookahead")

    def __init__(self, shard_id, num_shards, lookahead):
        self.shard_id = shard_id
        self.num_shards = num_shards
        self.lookahead = lookahead

    def bind(self, kernel):
        return ShardPort(kernel, self.shard_id, self.num_shards,
                         self.lookahead)


def _worker_main(conn, shard_ids, specs, num_shards, lookahead):
    """Multiprocessing worker: owns a subset of shards, obeys the
    coordinator's window commands over a pipe."""
    runs = {i: _ShardRun(i, specs[i], num_shards, lookahead)
            for i in shard_ids}
    try:
        while True:
            command = conn.recv()
            op = command[0]
            if op == "poll":
                conn.send({i: run.poll() for i, run in runs.items()})
            elif op == "window":
                _, start, end, messages_by_shard = command
                replies = {}
                for i, run in runs.items():
                    replies[i] = run.run_window(
                        start, end, messages_by_shard.get(i, ()))
                conn.send(replies)
            elif op == "settle":
                conn.send({i: run.settle() for i, run in runs.items()})
            elif op == "stop":
                break
    except EOFError:
        pass
    finally:
        conn.close()


class _InlineExecutor:
    """All shards interleaved on the calling process (the 1-worker
    reference execution every parallel run must match bit-for-bit)."""

    def __init__(self, specs, num_shards, lookahead):
        self.runs = [_ShardRun(i, specs[i], num_shards, lookahead)
                     for i in range(num_shards)]

    def poll(self):
        return {run.shard_id: run.poll() for run in self.runs}

    def window(self, start, end, messages_by_shard):
        return {run.shard_id: run.run_window(
                    start, end, messages_by_shard.get(run.shard_id, ()))
                for run in self.runs}

    def settle(self):
        return {run.shard_id: run.settle() for run in self.runs}

    def close(self):
        self.runs = []


class _ProcessExecutor:
    """Shards spread over ``workers`` OS processes, lock-stepped at
    window boundaries over pipes."""

    def __init__(self, specs, num_shards, lookahead, workers):
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # platforms without fork
            context = multiprocessing.get_context("spawn")
        self._conns = []
        self._procs = []
        self._owner = {}
        assignments = [[] for _ in range(workers)]
        for shard_id in range(num_shards):
            assignments[shard_id % workers].append(shard_id)
        for worker_index, shard_ids in enumerate(assignments):
            if not shard_ids:
                continue
            parent, child = context.Pipe()
            proc = context.Process(
                target=_worker_main,
                args=(child, shard_ids, specs, num_shards, lookahead),
                daemon=True,
            )
            proc.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(proc)
            for shard_id in shard_ids:
                self._owner[shard_id] = len(self._conns) - 1

    def _broadcast(self, command):
        for conn in self._conns:
            conn.send(command)
        merged = {}
        for conn in self._conns:
            merged.update(conn.recv())
        return merged

    def poll(self):
        return self._broadcast(("poll",))

    def window(self, start, end, messages_by_shard):
        for worker_index, conn in enumerate(self._conns):
            owned = {i: msgs for i, msgs in messages_by_shard.items()
                     if self._owner[i] == worker_index}
            conn.send(("window", start, end, owned))
        merged = {}
        for conn in self._conns:
            merged.update(conn.recv())
        return merged

    def settle(self):
        return self._broadcast(("settle",))

    def close(self):
        for conn in self._conns:
            try:
                conn.send(("stop",))
                conn.close()
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=30)
            if proc.is_alive():
                proc.terminate()
        self._conns, self._procs = [], []


class ShardedKernel:
    """Coordinator of a partitioned simulation.

    ``specs`` is one ``(builder, args, kwargs)`` per shard (see
    :class:`_ShardRun` for the program protocol). ``workers`` chooses
    execution only — the merged timeline is identical for any worker
    count, which is the whole point.
    """

    def __init__(self, specs, lookahead, workers=None, executor="process"):
        self.specs = list(specs)
        self.num_shards = len(self.specs)
        if self.num_shards == 0:
            raise ValueError("ShardedKernel needs at least one shard")
        self.lookahead = lookahead
        self.workers = min(workers or self.num_shards, self.num_shards)
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1: {workers}")
        self.executor = executor
        self.results = None
        self.epochs = 0
        self.stats = None
        self._message_hash = hashlib.sha256()
        self.messages_routed = 0

    # ------------------------------------------------------------------

    def _make_executor(self):
        if self.executor == "inline" or (
                self.executor == "auto" and self.workers == 1):
            return _InlineExecutor(self.specs, self.num_shards, self.lookahead)
        if self.executor in ("process", "auto"):
            return _ProcessExecutor(self.specs, self.num_shards,
                                    self.lookahead, self.workers)
        raise ValueError(f"unknown executor {self.executor!r}")

    def run(self, limit=None, max_epochs=None):
        """Drive every shard to program completion; returns self.

        ``limit`` caps global simulated time (SimError beyond it, like
        ``run_until_complete``); ``max_epochs`` is a runaway backstop.
        """
        executor = self._make_executor()
        try:
            inflight = []
            states = executor.poll()
            while True:
                done = all(state[1] for state in states.values())
                if done and not inflight:
                    break
                candidates = [state[0] for state in states.values()
                              if state[0] is not None]
                candidates.extend(message.ts for message in inflight)
                if not candidates:
                    raise SimError(
                        "sharded deadlock: undone programs, empty queues, "
                        "no messages in flight")
                start = min(candidates)
                if limit is not None and start > limit:
                    raise SimError(
                        f"sharded run exceeded limit={limit} "
                        f"(frontier {start})")
                if max_epochs is not None and self.epochs >= max_epochs:
                    raise SimError(f"sharded run exceeded {max_epochs} epochs")
                window_end = start + self.lookahead
                by_shard = {}
                inflight.sort(key=lambda m: (m.ts, m.src, m.seq))
                for message in inflight:
                    by_shard.setdefault(message.dst, []).append(message)
                    self._note_routed(message)
                replies = executor.window(start, window_end, by_shard)
                inflight = []
                states = {}
                for shard_id, (next_time, prog_done, _ran, outbox) in \
                        replies.items():
                    states[shard_id] = (next_time, prog_done)
                    inflight.extend(outbox)
                self.epochs += 1
            settled = executor.settle()
            self.results = [settled[i][0] for i in range(self.num_shards)]
            self._collect_stats(settled)
        finally:
            executor.close()
        return self

    def _note_routed(self, message):
        self.messages_routed += 1
        self._message_hash.update(repr(
            (round(message.ts, 9), message.src, message.dst, message.seq,
             message.kind)).encode())

    def _collect_stats(self, settled):
        totals = {"messages_sent": 0, "messages_received": 0,
                  "lookahead_stalls": 0, "windows_run": 0,
                  "messages_dropped": 0}
        for i in range(self.num_shards):
            for key, value in settled[i][1].items():
                totals[key] += value
        totals["epochs"] = self.epochs
        totals["messages_routed"] = self.messages_routed
        self.stats = totals

    @property
    def message_digest(self):
        """Digest of the routed cross-shard message sequence (part of
        the merged-timeline fingerprint)."""
        return self._message_hash.hexdigest()


def merged_digest(shard_digests, message_digest):
    """One fingerprint for the whole partitioned run: the per-shard
    timeline digests (in shard order) plus the boundary-message log."""
    blob = repr((tuple(shard_digests), message_digest))
    return hashlib.sha256(blob.encode()).hexdigest()
