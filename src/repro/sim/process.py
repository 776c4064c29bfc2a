"""Generator-based simulation processes.

A process wraps a generator. Each value the generator yields must be an
:class:`~repro.sim.events.Event` (processes themselves are events, so
``yield other_process`` joins it). When the yielded event triggers, the
kernel resumes the generator with the event's value, or throws the
event's exception into it.

A process is itself an event: it succeeds with the generator's return
value, or fails with the uncaught exception. Killing a process throws
:class:`~repro.sim.errors.ProcessKilled` into the generator at its
current suspension point.

A process can also *adopt* a generator that someone else has already
stepped to its first suspension, together with the event it yielded
there (``waiting_on=``). Such a process queues no start hop: it waits
on that event as if its own first step had yielded it. :func:`step`
is how a caller runs a generator's first step at once and pays for a
process only when the generator suspends — the RPC server runs every
handler that way (``repro.grpcnet.server.Server.dispatch``). The first
step's outcomes are :meth:`Process._resume`'s: a return succeeds, an
exception fails, a non-event yield fails with ``TypeError``.
"""

from .errors import ProcessKilled
from .events import FAILED, PENDING, Event


class Process(Event):
    """A running simulated activity; also the event of its completion.

    Spawned, it queues a start hop and takes its first step there.
    Given ``waiting_on``, it adopts a generator already stepped to its
    first suspension and waits on the event yielded there, with no
    start hop (module docstring).
    """

    __slots__ = ("_generator", "_waiting_on", "_pending_kill")

    def __init__(self, kernel, generator, name="", waiting_on=None):
        super().__init__(kernel, name=name or getattr(generator, "__name__", "process"))
        if not hasattr(generator, "send"):
            raise TypeError(
                f"spawn() needs a generator, got {type(generator).__name__}; "
                "did you forget to call the generator function?"
            )
        self._generator = generator
        self._pending_kill = None
        if waiting_on is None:
            self._waiting_on = None
            kernel._ready.append(self._start)
        else:  # adoption (module docstring)
            self._waiting_on = waiting_on
            waiting_on.add_callback(self._on_wait_done)

    def _start(self):
        self._resume(None)

    @property
    def alive(self):
        return not self.triggered

    # ------------------------------------------------------------------

    def kill(self, reason=""):
        """Throw :class:`ProcessKilled` into the process.

        Idempotent on finished processes. The kill lands at the process's
        current suspension point, at the current simulated instant.
        """
        self._deliver(ProcessKilled(reason))

    def _deliver(self, exc):
        if self.triggered or self._pending_kill is not None:
            return
        self._pending_kill = exc
        if self._waiting_on is not None:
            self._waiting_on.remove_callback(self._on_wait_done)
            self._waiting_on = None
        self._kernel._ready.append(self._fire_pending)

    def _fire_pending(self):
        exc, self._pending_kill = self._pending_kill, None
        if exc is None or self.triggered:
            return
        self._resume(None, throw=exc)

    # ------------------------------------------------------------------

    def _on_wait_done(self, event):
        # The wake every wait ends in: _resume's step, inlined for the
        # common case of a value sent in and a pending event yielded.
        self._waiting_on = None
        if event.state is FAILED:
            self._resume(None, throw=event.exception)
            return
        if self.state is not PENDING:
            return
        try:
            target = self._generator.send(event.value)
        except BaseException as exc:
            self._finish(exc)
            return
        if not isinstance(target, Event) or target.state is not PENDING:
            self._suspend(target)
            return
        self._waiting_on = target
        target._callbacks.append(self._on_wait_done)

    def _resume(self, value, throw=None):
        if self.state is not PENDING:
            return
        try:
            if throw is not None:
                target = self._generator.throw(throw)
            else:
                target = self._generator.send(value)
        except BaseException as exc:
            self._finish(exc)
            return
        self._suspend(target)

    def _finish(self, exc):
        """The generator raised ``exc`` out of a step."""
        if isinstance(exc, StopIteration):
            self.succeed(exc.value)
        elif isinstance(exc, ProcessKilled):
            # A kill that propagated out is a normal termination mode.
            self.fail(exc)
        else:
            self.fail(exc)
            if not isinstance(exc, Exception):
                raise exc

    def _suspend(self, target):
        """Wait on what the generator yielded."""
        if not isinstance(target, Event):
            self.fail(TypeError(f"process {self.name!r} yielded non-event {target!r}"))
            return
        self._waiting_on = target
        target.add_callback(self._on_wait_done)

    def fail(self, exception):
        # Unlike bare events, a failed process must not crash the kernel
        # loop; waiters observe the failure, and tests assert on it.
        super().fail(exception)
        return self

    def __repr__(self):
        return f"<Process {self.name!r} {self.state}>"


def step(kernel, generator, name):
    """Run ``generator`` to its first suspension, here and now.

    Returns a settled :class:`Event` when it finished without
    suspending, else a :class:`Process` that adopted it (module
    docstring). An exception that is not an ``Exception`` propagates,
    as it does out of a process.
    """
    try:
        target = generator.send(None)
    except StopIteration as stop:
        return Event(kernel).succeed(stop.value)
    except Exception as exc:
        return Event(kernel).fail(exc)
    if not isinstance(target, Event):
        return Event(kernel).fail(
            TypeError(f"process {name!r} yielded non-event {target!r}"))
    return Process(kernel, generator, name, waiting_on=target)
