"""The discrete-event simulation kernel.

The kernel owns simulated time and an ordered event queue. Simulated
components are *processes*: Python generators that yield waitables
(:class:`~repro.sim.events.Event`, other processes, or the result of
:meth:`Kernel.sleep`). The kernel resumes a process when the waitable it
yielded triggers, passing the waitable's value back into the generator
(or throwing its exception).

Determinism: with a fixed seed, every run produces an identical trace.
Ties in time are broken by insertion order, and all randomness flows
through named, independently seeded RNG streams (:meth:`Kernel.rng`).

Two queues, one order. An entry is a callback due at a time, and the
kernel runs entries in ``(when, seq)`` order, ``seq`` being the order
they were scheduled in. Entries due *later* than now go on a heap of
``(when, seq, callback)`` tuples. Entries due *now* — a zero-delay
hop: an event's dispatch, a process start or kill, :meth:`call_soon`,
a sleep or :meth:`call_later` whose ``when`` equals now — are appended
to a FIFO ready queue and never touch the heap. The run loops drain
the ready queue, and only when it is empty pop the heap's top and
advance the clock to it; the other heap entries due at that instant
move to the (empty) ready queue at once, in heap order, so they run
before anything the instant schedules. That is the single heap's
order exactly: a heap entry due at ``t`` was pushed while the clock
was still before ``t``, so its ``seq`` is below that of every entry
scheduled during ``t``, and entries scheduled during one instant
keep their scheduling order in the FIFO. ``events_processed`` counts
both queues' entries.

A lone timer wakes inline. A :class:`Timer` that fires while the ready
queue is empty runs its waiters in its own entry instead of queueing
the dispatch hop an :class:`~repro.sim.events.Event` takes. With
nothing due now, that hop would have been the very next entry — the
ready queue runs before the heap, and the heap entries due at the
timer's instant sit in the ready queue already when it fires — so
nothing can run between the two and the order is the single heap's.
A timer that fires with entries waiting keeps its hop, behind them.
The rule has one owner, :meth:`Kernel.timer_hop`, and every entry that
ends a wait hands it its hop: a :class:`Timer`, and the entries that
are their own timer — an RPC's deadline (``repro.grpcnet.network``), a
poll tick (``repro.sim.periodic``), a Raft replicator's idle wait
(``repro.raftkv.node``), each queued by :meth:`call_later`.
The inlined hops are counted in ``dispatches_inlined``, so
``events_processed + dispatches_inlined`` is the count the kernel
would have reached with a hop per timer. One thing tells: when the
timer is itself the target of :meth:`Kernel.run_until_complete`, its
waiters have run by the time the call returns, where a queued hop
would have run in the next ``run``.

Timers are cancellable with lazy deletion: :meth:`Kernel.sleep`
returns a :class:`Timer` that is its own queue entry (no per-sleep
closure). Cancelling it leaves the entry queued and marked dead; when
it is reached, the kernel counts it (``dead_entries_skipped``) and
does nothing else — the surviving timeline is bit-identical to the one
where the timer fired into zero callbacks. An RPC settled before its
deadline and a replicator poked before its heartbeat leave their
entries dead the same way, counted alike.
"""

import heapq
import random
from collections import deque

from .errors import SimError
from .events import AllOf, AnyOf, CANCELLED, Event, PENDING, SUCCEEDED
from .process import Process


class Timer(Event):
    """A cancellable sleep: the event and its queue entry fused into
    one object, so ``sleep()`` allocates nothing beyond the event.

    The kernel's queue holds the timer itself as the entry's callback;
    :meth:`__call__` fires it, or skips it when it was cancelled.
    Cancellation accounting (``timers_cancelled`` / ``_dead_pending``)
    lives on the owning kernel *instance* — two kernels in one process
    never share counters.
    """

    __slots__ = ()

    def __init__(self, kernel):
        # Event.__init__'s assignments, without its frame.
        self._kernel = kernel
        self.name = ""
        self.state = PENDING
        self.value = None
        self.exception = None
        self._callbacks = []
        self._pending_dispatch = None

    def __call__(self):
        state = self.state
        if state is PENDING:
            # Event.succeed, inlined: the state cannot be anything else.
            self.state = SUCCEEDED
            callbacks = self._callbacks
            self._callbacks = ()
            if callbacks:
                self._pending_dispatch = callbacks
                self._kernel.timer_hop(self._run_dispatch)
        elif state is CANCELLED:
            kernel = self._kernel
            kernel.dead_entries_skipped += 1
            kernel._dead_pending -= 1

    def cancel(self):
        """Defuse the timer; its queue entry is lazily skipped."""
        if self.state is PENDING:
            self.state = CANCELLED
            self._callbacks = None
            kernel = self._kernel
            kernel.timers_cancelled += 1
            kernel._dead_pending += 1


# ``Kernel.debug`` at construction; a test sets the attribute on its
# kernel to name hot-path events.
DEBUG = False


class Kernel:
    """Discrete-event simulation kernel with generator-based processes.

    Every piece of kernel state — clock, queues, RNG streams, perf
    counters, debug flag — is owned by the instance. Nothing lives at
    module or class level, so back-to-back kernels in one process coexist
    without bleeding state into each other; ``scripts/
    lint_shared_state.py`` enforces this structurally.
    """

    def __init__(self, seed=0):
        self._now = 0.0
        # Entries due later than now, as (when, seq, callback).
        self._queue = []
        # Callbacks due now, in scheduling order (module docstring).
        self._ready = deque()
        self._sequence = 0
        self._seed = seed
        self._rngs = {}
        # When True, components may attach human-readable names to
        # hot-path events/processes (RPC calls, channel gets). Off by
        # default: the f-string formatting alone is measurable at scale.
        # Per instance — flipping one kernel's flag never outlives it.
        self.debug = DEBUG
        # Perf counters (exposed as kernel_* metrics by the monitoring
        # scraper; see MetricsScraper). Instance-owned: a fresh kernel
        # always starts from zero, however many ran before it.
        self.events_processed = 0
        # Timer dispatch hops run inside the timer's own entry, each
        # one event fewer (module docstring).
        self.dispatches_inlined = 0
        self.timers_cancelled = 0
        self.dead_entries_skipped = 0
        self._dead_pending = 0

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------

    @property
    def now(self):
        """Current simulated time, in seconds."""
        return self._now

    @property
    def dead_entry_ratio(self):
        """Fraction of processed entries that were cancelled timers."""
        if not self.events_processed:
            return 0.0
        return self.dead_entries_skipped / self.events_processed

    @property
    def dead_entries_pending(self):
        """Cancelled timers still queued (lazy deletion)."""
        return self._dead_pending

    def call_soon(self, callback):
        """Run ``callback()`` at the current instant, after everything
        already queued for it: a bare ready-queue entry, no event."""
        self._ready.append(callback)

    def call_later(self, delay, callback):
        """Run ``callback()`` ``delay`` seconds from now. Unlike
        :meth:`sleep` there is no :class:`Timer` to wait on or cancel
        and no dispatch hop: the callback *is* the queue entry."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        now = self._now
        when = now + delay
        if when == now:
            self._ready.append(callback)
        else:
            self._sequence += 1
            heapq.heappush(self._queue, (when, self._sequence, callback))

    # ------------------------------------------------------------------
    # Waitables
    # ------------------------------------------------------------------

    def event(self, name=""):
        """Create a fresh pending :class:`Event`."""
        return Event(self, name=name)

    def sleep(self, delay):
        """Return a :class:`Timer` that succeeds ``delay`` seconds from
        now. The caller that owns it exclusively may ``cancel()`` it
        (e.g. after losing a deadline race)."""
        if delay < 0:
            raise ValueError(f"negative sleep: {delay}")
        timer = Timer(self)
        now = self._now
        when = now + delay
        if when == now:
            self._ready.append(timer)
        else:
            self._sequence += 1
            heapq.heappush(self._queue, (when, self._sequence, timer))
        return timer

    def timer_hop(self, hop):
        """Run ``hop``, the dispatch hop of the timer entry running now:
        here when nothing else is due now, else queued behind what is
        (module docstring). Every entry that ends a wait — a
        :class:`Timer`, an RPC's deadline, a poll tick, a Raft
        replicator's idle wait — hands its hop to this one method."""
        if self._ready:
            self._ready.append(hop)
        else:
            self.dispatches_inlined += 1
            hop()

    def any_of(self, events):
        """Event that fires when the first of ``events`` triggers."""
        return AnyOf(self, events)

    def all_of(self, events):
        """Event that fires when all of ``events`` have succeeded."""
        return AllOf(self, events)

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------

    def spawn(self, generator, name=""):
        """Start a process from a generator; returns its :class:`Process`.

        The process begins executing at the current simulated instant
        (not synchronously inside this call).
        """
        return Process(self, generator, name=name)

    # ------------------------------------------------------------------
    # Randomness
    # ------------------------------------------------------------------

    def rng(self, stream):
        """Independent deterministic RNG for the named stream.

        Distinct streams are seeded from the kernel seed plus the stream
        name, so adding a consumer of one stream never perturbs another.
        """
        if stream not in self._rngs:
            self._rngs[stream] = random.Random(f"{self._seed}:{stream}")
        return self._rngs[stream]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    # Both loops pick the next entry the same way (module docstring):
    # the ready queue while it holds anything, else the heap's top,
    # which advances the clock and moves the other heap entries due at
    # that instant to the ready queue.

    def run(self, until=None):
        """Run until the queues drain, or simulated time passes ``until``.

        If ``until`` is given, time is advanced exactly to ``until`` on
        return (even if the queues drained earlier), so repeated
        ``run(until=...)`` calls observe a monotone clock.
        """
        if until is not None and until < self._now:
            raise SimError(f"run(until={until}) is in the past (now={self._now})")
        horizon = float("inf") if until is None else until
        queue = self._queue
        ready = self._ready
        popleft = ready.popleft
        append = ready.append
        pop = heapq.heappop
        while True:
            if ready:
                callback = popleft()
            elif queue and queue[0][0] <= horizon:
                when, _seq, callback = pop(queue)
                self._now = when
                while queue and queue[0][0] == when:
                    append(pop(queue)[2])
            else:
                break
            self.events_processed += 1
            callback()
        if until is not None:
            self._now = until

    def run_until_complete(self, process, limit=None):
        """Run until ``process`` finishes; return its value.

        Raises the process's exception if it failed, and
        :class:`SimError` if the queues drain (or ``limit`` simulated
        seconds pass) before the process completes.
        """
        deadline = float("inf") if limit is None else self._now + limit
        if process.state is PENDING and self._now > deadline:
            raise SimError(f"process {process.name!r} did not finish within {limit}s")
        queue = self._queue
        ready = self._ready
        popleft = ready.popleft
        append = ready.append
        pop = heapq.heappop
        # The clock moves only below, after the deadline check, so it is
        # never past the deadline inside the loop.
        while process.state is PENDING:
            if ready:
                callback = popleft()
            elif queue:
                if queue[0][0] > deadline:
                    raise SimError(f"process {process.name!r} did not finish within {limit}s")
                when, _seq, callback = pop(queue)
                self._now = when
                while queue and queue[0][0] == when:
                    append(pop(queue)[2])
            else:
                raise SimError(f"deadlock: queue drained before {process.name!r} finished")
            self.events_processed += 1
            callback()
        if process.state == "failed":
            raise process.exception
        return process.value
