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
"""

from .errors import Interrupt, ProcessKilled
from .events import FAILED, PENDING, Event


class Process(Event):
    """A running simulated activity; also the event of its completion."""

    __slots__ = ("_generator", "_waiting_on", "_pending_kill")

    def __init__(self, kernel, generator, name=""):
        super().__init__(kernel, name=name or getattr(generator, "__name__", "process"))
        if not hasattr(generator, "send"):
            raise TypeError(
                f"spawn() needs a generator, got {type(generator).__name__}; "
                "did you forget to call the generator function?"
            )
        self._generator = generator
        self._waiting_on = None
        self._pending_kill = None
        kernel._ready.append(self._start)

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

    def interrupt(self, cause=None):
        """Throw :class:`Interrupt` into the process without killing it."""
        self._deliver(Interrupt(cause))

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
        self._waiting_on = None
        if event.state is FAILED:
            self._resume(None, throw=event.exception)
        else:
            self._resume(event.value)

    def _resume(self, value, throw=None):
        if self.state is not PENDING:
            return
        try:
            if throw is not None:
                target = self._generator.throw(throw)
            else:
                target = self._generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except ProcessKilled as killed:
            # A kill that propagated out is a normal termination mode.
            self.fail(killed)
            return
        except BaseException as exc:
            self.fail(exc)
            if not isinstance(exc, Exception):
                raise
            return
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
