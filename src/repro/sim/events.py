"""One-shot waitable events for the simulation kernel.

An :class:`Event` starts pending, and is triggered exactly once — either
:meth:`Event.succeed` with a value, or :meth:`Event.fail` with an
exception. Processes wait on events by yielding them from their
generator; the kernel resumes the process with the event's value (or
throws the event's exception into it).

Cancellation: a pending event that nobody will ever wait on again can be
defused with :meth:`Event.cancel` — it drops its callbacks and will
never trigger. Timers (see :class:`repro.sim.kernel.Timer`) extend this
with lazy heap deletion: the cancelled entry stays in the kernel's heap
and is skipped (counted, not dispatched) when it pops. Cancelling an
event another process still waits on would strand that process, so only
cancel events you own exclusively — e.g. the losing timer of a
deadline race.
"""

PENDING = "pending"
SUCCEEDED = "succeeded"
FAILED = "failed"
CANCELLED = "cancelled"


class Event:
    """A one-shot waitable; the unit of synchronization in the kernel.

    Slotted: events (and their Timer/Process subclasses) are the
    hottest allocation in the simulator — at bench scale hundreds of
    thousands are created per run, and dropping the per-instance dict
    is a measurable win (see EXPERIMENTS.md).
    """

    __slots__ = ("_kernel", "name", "state", "value", "exception",
                 "_callbacks", "_pending_dispatch", "__weakref__")

    def __init__(self, kernel, name=""):
        self._kernel = kernel
        self.name = name
        self.state = PENDING
        self.value = None
        self.exception = None
        self._callbacks = []
        self._pending_dispatch = None

    @property
    def triggered(self):
        return self.state is not PENDING

    @property
    def ok(self):
        return self.state is SUCCEEDED

    @property
    def cancelled(self):
        return self.state is CANCELLED

    def succeed(self, value=None):
        """Trigger the event successfully, waking all waiters."""
        if self.state is not PENDING:
            raise RuntimeError(f"event {self.name!r} already {self.state}")
        self.state = SUCCEEDED
        self.value = value
        self._dispatch()
        return self

    def fail(self, exception):
        """Trigger the event with an exception, which waiters receive."""
        if self.state is not PENDING:
            raise RuntimeError(f"event {self.name!r} already {self.state}")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self.state = FAILED
        self.exception = exception
        self._dispatch()
        return self

    def cancel(self):
        """Defuse a pending event: it will never trigger, and its
        callbacks are dropped.

        Only the exclusive owner of an event may cancel it — a waiter
        added later would never wake. No-op once triggered.
        """
        if self.state is PENDING:
            self.state = CANCELLED
            self._callbacks = None

    def add_callback(self, callback):
        """Register ``callback(event)``; runs at trigger time.

        If the event has already triggered, the callback is scheduled to
        run immediately (at the current simulated instant).
        """
        if self.state is PENDING:
            self._callbacks.append(callback)
        elif self.state is CANCELLED:
            raise RuntimeError(f"event {self.name!r} was cancelled")
        else:
            self._kernel._schedule_now(lambda: callback(self))

    def remove_callback(self, callback):
        """Unregister a pending callback; ignores unknown callbacks."""
        if self._callbacks:
            try:
                self._callbacks.remove(callback)
            except ValueError:
                pass

    def _dispatch(self):
        # One queue entry runs every registered callback in order. This
        # is order-equivalent to scheduling one entry per callback:
        # callbacks still run in registration order, and anything they
        # schedule lands at a later sequence number, hence after the
        # whole batch — exactly as before.
        callbacks = self._callbacks
        self._callbacks = ()
        if callbacks:
            self._pending_dispatch = callbacks
            self._kernel._schedule_now(self._run_dispatch)

    def _run_dispatch(self):
        callbacks = self._pending_dispatch
        self._pending_dispatch = None
        for callback in callbacks:
            callback(self)

    def __repr__(self):
        return f"<Event {self.name!r} {self.state}>"


class AnyOf(Event):
    """Succeeds when any child event triggers.

    The value is a ``(event, value)`` pair for the first child that
    triggered. A failing child fails the composite. On first trigger the
    composite detaches its callback from the losing children, so a
    long-lived loser (a watch, a stop event) does not accumulate dead
    callbacks across races.
    """

    __slots__ = ("events",)

    def __init__(self, kernel, events, name="any-of"):
        super().__init__(kernel, name=name)
        self.events = list(events)
        if not self.events:
            raise ValueError("AnyOf requires at least one event")
        for event in self.events:
            event.add_callback(self._on_child)

    def _on_child(self, event):
        if self.state is not PENDING:
            return
        if event.state is FAILED:
            self.fail(event.exception)
        else:
            self.succeed((event, event.value))
        on_child = self._on_child
        for other in self.events:
            if other is not event and other.state is PENDING:
                other.remove_callback(on_child)


class AllOf(Event):
    """Succeeds when every child event has succeeded.

    The value is the list of child values, in the order the children
    were given. The first failing child fails the composite and detaches
    from the still-pending children.
    """

    __slots__ = ("events", "_remaining")

    def __init__(self, kernel, events, name="all-of"):
        super().__init__(kernel, name=name)
        self.events = list(events)
        self._remaining = len(self.events)
        if not self.events:
            # Vacuously complete; trigger via the scheduler so waiters
            # registered after construction still wake up.
            kernel._schedule_now(lambda: self.succeed([]))
            return
        for event in self.events:
            event.add_callback(self._on_child)

    def _on_child(self, event):
        if self.state is not PENDING:
            return
        if event.state is FAILED:
            self.fail(event.exception)
            on_child = self._on_child
            for other in self.events:
                if other is not event and other.state is PENDING:
                    other.remove_callback(on_child)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([child.value for child in self.events])
