"""The fixed-interval control loop, written once.

Every polling component of the platform — scraper, alert engine,
auditor, scheduler, workload controllers, kubelet heartbeat and sync,
slice manager, the reconciler's resync ticker — holds a
:class:`Periodic` and keeps only its ``*_once()`` body. What "poll on
an interval" and what ``stop()`` mean live here and nowhere else.
"""

from .events import PENDING
from .process import step


class _Tick:
    """One life of a loop, from a ``start()`` to the ``stop()`` or the
    failed pass that ends it: the queue entry due at the end of every
    interval. It fires like a timer (``Kernel.timer_hop``) and its hop
    runs the pass; a tick of a life that has ended fires into nothing."""

    __slots__ = ("_loop", "_hop")

    def __init__(self, loop):
        self._loop = loop
        self._hop = self._pass  # bound once: it runs at every tick

    def __call__(self):
        loop = self._loop
        if loop._tick is self:
            loop.kernel.timer_hop(self._hop)

    def begin(self):
        self._loop._begin(self)

    def _pass(self):
        self._loop._pass(self)


class Periodic:
    """``body()`` every ``interval`` simulated seconds, on the kernel.

    ``body`` is a plain callable or a generator function (a pass that
    suspends on RPCs). The loop is work-then-sleep — the first pass
    runs at the instant of ``start()`` — unless ``sleep_first``, which
    waits one interval before the first pass. ``setup``, a generator
    function, runs once at every start before that (the slice manager
    registers its lease there); if it raises, the loop ends with it.

    A tick is one queue entry that runs the pass in its hop; the loop
    has no process of its own. A generator pass (or the setup) runs
    through :func:`repro.sim.process.step`, so it gets a process only
    while it is suspended, and the next tick is queued when it ends.

    The lifecycle contract every holder inherits: ``start()`` is
    idempotent while the loop lives and restarts it, on the same phase,
    after ``stop()`` or after a pass that raised; ``stop(reason)`` is
    idempotent and takes effect at the current instant, wherever the
    loop is — between ticks, or mid-pass, whose process it kills with
    ``reason`` — so no pass begins after it. A body that wants to
    survive its own exceptions guards itself (``cluster.Controller``
    does).
    """

    def __init__(self, kernel, name, body, interval, *, sleep_first=False,
                 setup=None):
        if interval <= 0:
            raise ValueError(f"{name}: interval must be positive: {interval}")
        self.kernel = kernel
        self.name = name
        self.body = body
        self.interval = interval
        self.sleep_first = sleep_first
        self.setup = setup
        self._tick = None  # the live loop's entry
        self._proc = None  # the process of a suspended pass or setup

    @property
    def running(self):
        return self._tick is not None

    def start(self):
        if self._tick is None:
            self._tick = tick = _Tick(self)
            # The setup or first pass runs one hop later, never inside
            # start(): the caller's instant keeps its order.
            self.kernel.call_soon(tick.begin)
        return self

    def stop(self, reason=""):
        self._tick = None
        proc, self._proc = self._proc, None
        if proc is not None:
            proc.kill(reason or f"{self.name} stopped")
        return self

    def _begin(self, tick):
        if self._tick is not tick:
            return
        if self.setup is not None:
            self._step(tick, self.setup(), self._first)
        else:
            self._first(tick)

    def _first(self, tick):
        if self.sleep_first:
            self.kernel.call_later(self.interval, tick)
        else:
            self._pass(tick)

    def _pass(self, tick):
        # Re-checked in the hop: a stop() that lands between a tick
        # firing and its hop must not let one more pass run.
        if self._tick is not tick:
            return
        try:
            passed = self.body()
        except Exception:
            self._tick = None  # a pass that raised ends the loop
            return
        if hasattr(passed, "send"):
            self._step(tick, passed, self._sleep)
        else:
            self._sleep(tick)

    def _sleep(self, tick):
        if self._tick is tick:
            self.kernel.call_later(self.interval, tick)

    def _step(self, tick, generator, then):
        """Run ``generator`` to its first suspension, here; ``then(tick)``
        runs where it ends."""
        proc = step(self.kernel, self._through(tick, generator, then),
                    self.name)
        if proc.state is PENDING:
            if self._tick is tick:
                self._proc = proc
            else:  # it stopped its own loop, then suspended
                proc.kill(f"{self.name} stopped")

    def _through(self, tick, generator, then):
        try:
            yield from generator
        except BaseException:
            if self._tick is tick:  # it raised: the loop ends with it
                self._tick = self._proc = None
            raise
        if self._tick is tick:
            self._proc = None
            then(tick)


class Polling:
    """Mixin for a component whose lifecycle is one loop, ``self._loop``:
    the loop's ``start()`` and ``stop()``, chainable."""

    def start(self):
        self._loop.start()
        return self

    def stop(self):
        self._loop.stop()
        return self
