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

Timers are cancellable with lazy heap deletion: :meth:`Kernel.sleep`
returns a :class:`Timer` that is its own heap entry (no per-sleep
closure). Cancelling it leaves the entry in the heap marked dead; when
it pops, the kernel counts it (``dead_entries_skipped``) and does
nothing else — the surviving timeline is bit-identical to the one where
the timer fired into zero callbacks.
"""

import heapq
import random

from .errors import SimError
from .events import AllOf, AnyOf, CANCELLED, Event, PENDING
from .process import Process


class Timer(Event):
    """A cancellable sleep: the event and its heap callback fused into
    one object, so ``sleep()`` allocates nothing beyond the event.

    The kernel heap holds the timer itself as the entry's callback;
    :meth:`__call__` fires it, or skips it when it was cancelled.
    Cancellation accounting (``timers_cancelled`` / ``_dead_pending``)
    lives on the owning kernel *instance* — two kernels in one process
    never share counters.
    """

    __slots__ = ("_value",)

    def __init__(self, kernel, value=None):
        Event.__init__(self, kernel)
        self._value = value

    def __call__(self):
        state = self.state
        if state is PENDING:
            self.succeed(self._value)
        elif state is CANCELLED:
            kernel = self._kernel
            kernel.dead_entries_skipped += 1
            kernel._dead_pending -= 1

    def cancel(self):
        """Defuse the timer; its heap entry is lazily skipped on pop."""
        if self.state is PENDING:
            self.state = CANCELLED
            self._callbacks = None
            kernel = self._kernel
            kernel.timers_cancelled += 1
            kernel._dead_pending += 1


class Kernel:
    """Discrete-event simulation kernel with generator-based processes.

    Every piece of kernel state — clock, heap, RNG streams, perf
    counters, debug flag, shard binding — is owned by the instance.
    Nothing lives at module or class level, so any number of kernels
    (one per shard, or back-to-back scenarios in one process) coexist
    without bleeding state into each other; ``scripts/
    lint_shared_state.py`` enforces this structurally.
    """

    def __init__(self, seed=0, debug=False):
        self._now = 0.0
        self._queue = []
        self._sequence = 0
        self._seed = seed
        self._rngs = {}
        # When True, components may attach human-readable names to
        # hot-path events/processes (RPC calls, channel gets). Off by
        # default: the f-string formatting alone is measurable at scale.
        # Per instance — flipping one kernel's flag never outlives it.
        self.debug = debug
        # Bound by ShardPort when this kernel is one shard of a
        # partitioned simulation (see repro.sim.shard); None otherwise.
        self.shard = None
        # Perf counters (exposed as kernel_* metrics by the monitoring
        # scraper; see MetricsScraper). Instance-owned: a fresh kernel
        # always starts from zero, however many ran before it.
        self.events_processed = 0
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
        """Fraction of heap pops that were cancelled timers."""
        if not self.events_processed:
            return 0.0
        return self.dead_entries_skipped / self.events_processed

    @property
    def dead_entries_pending(self):
        """Cancelled timers still sitting in the heap (lazy deletion)."""
        return self._dead_pending

    def _schedule_at(self, when, callback):
        if when < self._now:
            raise SimError(f"cannot schedule in the past ({when} < {self._now})")
        self._sequence += 1
        heapq.heappush(self._queue, (when, self._sequence, callback))

    def call_soon(self, callback):
        """Run ``callback()`` at the current instant, after everything
        already queued for it: a bare heap entry, no event."""
        self._sequence += 1
        heapq.heappush(self._queue, (self._now, self._sequence, callback))

    # The kernel's own zero-delay hops (event dispatch, process start)
    # are the same entry; an alias, not a wrapper, so they pay no frame.
    _schedule_now = call_soon

    def call_later(self, delay, callback):
        """Run ``callback()`` ``delay`` seconds from now. Unlike
        :meth:`sleep` there is no :class:`Timer` to wait on or cancel
        and no dispatch hop: the callback *is* the heap entry."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        self._sequence += 1
        heapq.heappush(self._queue,
                       (self._now + delay, self._sequence, callback))

    # ------------------------------------------------------------------
    # Waitables
    # ------------------------------------------------------------------

    def event(self, name=""):
        """Create a fresh pending :class:`Event`."""
        return Event(self, name=name)

    def sleep(self, delay, value=None):
        """Return a :class:`Timer` that succeeds ``delay`` seconds from
        now. The caller that owns it exclusively may ``cancel()`` it
        (e.g. after losing a deadline race)."""
        if delay < 0:
            raise ValueError(f"negative sleep: {delay}")
        timer = Timer(self, value)
        self._sequence += 1
        heapq.heappush(self._queue, (self._now + delay, self._sequence, timer))
        return timer

    def timeout(self, delay, value=None):
        """Alias of :meth:`sleep`, for SimPy familiarity."""
        return self.sleep(delay, value)

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

    def peek_time(self):
        """Time of the next scheduled entry, or None when the heap is
        empty. Dead (cancelled) entries count: they still occupy heap
        slots and their pop order is part of the deterministic timeline."""
        queue = self._queue
        return queue[0][0] if queue else None

    def run_window(self, end):
        """Run every event with ``time < end``; return how many ran.

        Unlike :meth:`run`, the clock is *not* fast-forwarded to
        ``end`` — it stays at the last executed event, so the shard
        coordinator can read the true local frontier. This is the
        per-window execution primitive of ``repro.sim.shard``.
        """
        queue = self._queue
        pop = heapq.heappop
        ran = 0
        while queue and queue[0][0] < end:
            when, _seq, callback = pop(queue)
            self._now = when
            self.events_processed += 1
            ran += 1
            callback()
        return ran

    def step(self):
        """Execute the next scheduled callback; returns False when empty."""
        queue = self._queue
        if not queue:
            return False
        when, _seq, callback = heapq.heappop(queue)
        self._now = when
        self.events_processed += 1
        callback()
        return True

    def run(self, until=None):
        """Run until the queue drains, or simulated time passes ``until``.

        If ``until`` is given, time is advanced exactly to ``until`` on
        return (even if the queue drained earlier), so repeated
        ``run(until=...)`` calls observe a monotone clock.
        """
        if until is not None and until < self._now:
            raise SimError(f"run(until={until}) is in the past (now={self._now})")
        queue = self._queue
        pop = heapq.heappop
        if until is None:
            while queue:
                when, _seq, callback = pop(queue)
                self._now = when
                self.events_processed += 1
                callback()
        else:
            while queue and queue[0][0] <= until:
                when, _seq, callback = pop(queue)
                self._now = when
                self.events_processed += 1
                callback()
            self._now = until

    def run_until_complete(self, process, limit=None):
        """Run until ``process`` finishes; return its value.

        Raises the process's exception if it failed, and
        :class:`SimError` if the queue drains (or ``limit`` simulated
        seconds pass) before the process completes.
        """
        deadline = None if limit is None else self._now + limit
        queue = self._queue
        pop = heapq.heappop
        while process.state is PENDING:
            if deadline is not None and (
                self._now > deadline
                or (queue and queue[0][0] > deadline)
            ):
                raise SimError(f"process {process.name!r} did not finish within {limit}s")
            if not queue:
                raise SimError(f"deadlock: queue drained before {process.name!r} finished")
            when, _seq, callback = pop(queue)
            self._now = when
            self.events_processed += 1
            callback()
        if process.state == "failed":
            raise process.exception
        return process.value
