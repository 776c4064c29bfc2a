"""The platform's fault record, and the faults it applies itself.

What to break, and how, is ``repro.core.faults`` (``Fault`` and
``fire``). This module arms the faults a learner fires on itself at a
training step (hang, fail) and applies the *gray* faults ``fire``
hands it: impairments applied and later reverted while the target
keeps passing its health probe. Crashes are not recorded here; the
crashed component's own trace and events say so.

Every injection is recorded three ways, each with its own readers: the
``fault_injected_total`` counter metric (scraped beside the alerts it
should explain), a ``FaultInjected`` Warning platform event (so tests
can assert detection-follows-injection ordering from the operational
record alone), and a ``fault-injector`` trace record (what job
timelines show).
"""


class FaultInjector:
    """Applies gray faults and arms step faults, recording each one."""

    def __init__(self, kernel, tracer, metrics, events):
        self._kernel = kernel
        self._tracer = tracer
        self._events = events
        self.armed = {}  # learner pod -> (kind, step), see arm()
        # Disk stalls live on one etcd node or Mongo member: holder ->
        # the delays of its live stalls, whose sum is its disk_stall.
        self.stall_layers = {}
        self._m_injected = metrics.counter(
            "fault_injected_total", ("target", "kind"),
            help="Fault injections by target and fault kind")

    def _record(self, name, kind, reason, record_kind):
        self._m_injected.labels(target=name, kind=kind).inc()
        self._events.emit_event(
            "Warning", "FaultInjected", "Component", name,
            message=f"{kind} fault injected ({reason})")
        self._tracer.emit("fault-injector", record_kind,
                          target=name, reason=reason, fault=kind)

    def arm(self, name, kind, step):
        """Make learner pod ``name`` "hang" or "fail" (``kind``) once it
        has trained to ``step``. A hang is spent when it fires, so the
        restarted incarnation trains clean (a wedged CUDA context the
        restart cleared); a failure fires on every incarnation (a bug
        in user code). The learner reads its entry from ``armed`` and
        calls :meth:`fired` on reaching the step."""
        if kind not in ("hang", "fail"):
            raise ValueError(f"unknown step fault {kind!r}")
        self.armed[name] = (kind, step)

    def fired(self, name):
        """``name`` reached its armed step and is hanging or failing."""
        kind, step = self.armed[name]
        if kind == "hang":
            del self.armed[name]
        self._record(name, kind, f"step {step}", f"{kind}-injected")

    # ------------------------------------------------------------------
    # Gray faults
    # ------------------------------------------------------------------

    def inject_gray(self, name, kind, apply, revert=None, duration=None,
                    reason=None):
        """Apply a gray fault to ``name`` now and optionally schedule
        its end.

        ``apply``/``revert`` are zero-argument callables — typically a
        ``Network.degrade``/``restore`` pair or a disk-stall setter.
        ``kind`` labels the injection record ("slow", "partition",
        "loss", "duplicate", "disk-stall", ...). With both ``revert``
        and ``duration`` given, the fault clears ``duration`` seconds
        after it took effect. Unlike a crash, the target keeps serving
        throughout.
        """
        if duration is not None and duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")

        def clear():
            self._tracer.emit("fault-injector", "gray-cleared",
                              target=name, fault=kind)
            revert()

        self._record(name, kind, reason or kind, "gray-injected")
        apply()
        if revert is not None and duration is not None:
            self._kernel.call_later(duration, clear)
