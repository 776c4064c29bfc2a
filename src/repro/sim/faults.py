"""The platform's fault record, and the faults it applies itself.

What to break, and how, is ``repro.core.faults`` (``Fault`` and
``fire``). This module arms the faults a learner fires on itself at a
training step (hang, fail) and applies the *gray* faults ``fire``
hands it: impairments applied and later reverted while the target
keeps passing its health probe. Crashes are not recorded here; the
crashed component's own trace and events say so.

Every injection is recorded three ways: a bounded in-memory ring
(``injected``, the most recent entries only — a long chaos soak must
not grow memory without bound), the ``fault_injected_total`` counter
metric (the durable record), and a ``FaultInjected`` Warning platform
event so tests can assert detection-follows-injection ordering from
the operational record alone.
"""

from collections import deque

INJECTED_CAP = 256  # entries the ``injected`` ring keeps


class FaultInjector:
    """Applies gray faults and arms step faults, recording each one."""

    def __init__(self, kernel, tracer=None, metrics=None, events=None):
        self._kernel = kernel
        self._tracer = tracer
        self._events = events
        self.injected = deque(maxlen=INJECTED_CAP)
        self.armed = {}  # learner pod -> (kind, step), see arm()
        # Disk stalls live on one etcd node or Mongo member: holder ->
        # the delays of its live stalls, whose sum is its disk_stall.
        self.stall_layers = {}
        if metrics is not None:
            self._m_injected = metrics.counter(
                "fault_injected_total", ("target", "kind"),
                help="Fault injections by target and fault kind")
        else:
            self._m_injected = None

    def _record(self, name, kind, reason, record_kind):
        self.injected.append((self._kernel.now, name, reason))
        if self._m_injected is not None:
            self._m_injected.labels(target=name, kind=kind).inc()
        if self._events is not None:
            self._events.emit_event(
                "Warning", "FaultInjected", "Component", name,
                message=f"{kind} fault injected ({reason})")
        if self._tracer is not None:
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
            if self._tracer is not None:
                self._tracer.emit("fault-injector", "gray-cleared",
                                  target=name, fault=kind)
            revert()

        self._record(name, kind, reason or kind, "gray-injected")
        apply()
        if revert is not None and duration is not None:
            self._kernel._schedule_at(self._kernel.now + duration, clear)
