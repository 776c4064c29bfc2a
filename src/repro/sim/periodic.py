"""The fixed-interval control loop, written once.

Every polling component of the platform — scraper, alert engine, event
flusher, auditor, scheduler, workload controllers, kubelet heartbeat
and sync, serving autoscaler, slice manager, cluster monitor, the
reconciler's resync ticker — holds a :class:`Periodic` and keeps only
its ``*_once()`` body. What "poll on an interval" and what ``stop()``
mean live here and nowhere else.
"""


class Periodic:
    """A named kernel process running ``body()`` every ``interval``
    simulated seconds.

    ``body`` is a plain callable or a generator function (a pass that
    suspends on RPCs). The loop is work-then-sleep — the first pass
    runs at the instant of ``start()`` — unless ``sleep_first``, which
    waits one interval before the first pass. ``setup``, a generator
    function, runs once at every start before that (the slice manager
    registers its lease there); if it raises, the loop ends with it.
    ``spawn(generator, name)`` replaces ``kernel.spawn`` for a holder
    that keeps its own books of what runs under it (the kubelet: its
    loops die with the node's containers).

    The lifecycle contract every holder inherits: ``start()`` is
    idempotent while the loop lives and restarts it, on the same phase,
    after ``stop()`` or after a pass that raised; ``stop(reason)`` is
    idempotent and kills the process at the current instant, wherever
    it is suspended — mid-sleep or mid-pass — so no pass begins after
    it. A body that wants to survive its own exceptions guards itself
    (``cluster.Controller`` does).
    """

    def __init__(self, kernel, name, body, interval, *, sleep_first=False,
                 setup=None, spawn=None):
        if interval <= 0:
            raise ValueError(f"{name}: interval must be positive: {interval}")
        self.kernel = kernel
        self.name = name
        self.body = body
        self.interval = interval
        self.sleep_first = sleep_first
        self.setup = setup
        self._spawn = spawn
        self._proc = None

    @property
    def running(self):
        return self._proc is not None and self._proc.alive

    def start(self):
        if not self.running:
            spawn = self._spawn or self.kernel.spawn
            self._proc = spawn(self._loop(), self.name)
        return self

    def stop(self, reason=""):
        proc, self._proc = self._proc, None
        if proc is not None:
            proc.kill(reason or f"{self.name} stopped")
        return self

    def _loop(self):
        sleep = self.kernel.sleep
        if self.setup is not None:
            yield from self.setup()
        if self.sleep_first:
            yield sleep(self.interval)
        # Re-checked after every sleep: a stop() that lands between a
        # timer firing and its dispatch must not let one more pass run.
        while self._proc is not None:
            passed = self.body()
            if hasattr(passed, "send"):
                yield from passed
            yield sleep(self.interval)


class Polling:
    """Mixin for a component whose lifecycle is one loop, ``self._loop``:
    the loop's ``start()`` and ``stop()``, chainable."""

    def start(self):
        self._loop.start()
        return self

    def stop(self):
        self._loop.stop()
        return self
