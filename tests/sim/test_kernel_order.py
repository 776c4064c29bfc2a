"""The two-queue kernel runs entries in the single heap's order.

``Kernel`` keeps entries due later on a heap and entries due now on a
FIFO ready queue (``repro.sim.kernel`` module docstring). The claim is
that this changes nothing a simulation can observe: the same callbacks
run at the same instants in the same order, ``events_processed``
counts the same entries, and the same errors are raised at the same
point. ``SingleHeapKernel`` below is the kernel as it was before the
split — every entry a ``(when, seq, callback)`` tuple on one heap, and
every timer's dispatch hop queued (its ``timer_hop``) — and serves only
as the oracle here. Hypothesis generates nested programs
of every way to schedule (``call_soon``, ``call_later``, ``sleep``,
``spawn``, ``kill``, ``succeed``, ``cancel``) with
delays that tie often, and runs each on both kernels under ``run()``,
``run(until=)`` and ``run_until_complete(limit=)``.

A lone timer runs its waiters in its own entry (the kernel module
docstring), so the kernel processes one entry fewer per such timer:
``events_processed + dispatches_inlined`` must equal the oracle's
``events_processed`` exactly.
"""

import heapq

from hypothesis import given, settings, strategies as st

from repro.grpcnet import Network, Server
from repro.raftkv.node import HEARTBEAT, _Idle
from repro.sim import Kernel, MetricsRegistry, Periodic, SimError
from repro.sim.events import PENDING


class _HeapPush:
    """Stands in for the ready queue: what events and processes append
    to it goes on the heap at ``(now, seq)``, as it did before."""

    def __init__(self, kernel):
        self._kernel = kernel

    def append(self, callback):
        self._kernel.call_soon(callback)


class SingleHeapKernel(Kernel):
    """The oracle: one heap for every entry, the old run loops."""

    def __init__(self, seed=0):
        super().__init__(seed)
        self._ready = _HeapPush(self)

    def _push(self, when, callback):
        self._sequence += 1
        heapq.heappush(self._queue, (when, self._sequence, callback))

    def call_soon(self, callback):
        self._push(self._now, callback)

    def call_later(self, delay, callback):
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        self._push(self._now + delay, callback)

    def timer_hop(self, hop):
        # The timer as it was: a firing always queues its dispatch hop.
        self.call_soon(hop)

    def run(self, until=None):
        if until is not None and until < self._now:
            raise SimError(f"run(until={until}) is in the past (now={self._now})")
        queue = self._queue
        while queue and (until is None or queue[0][0] <= until):
            when, _seq, callback = heapq.heappop(queue)
            self._now = when
            self.events_processed += 1
            callback()
        if until is not None:
            self._now = until

    def run_until_complete(self, process, limit=None):
        deadline = None if limit is None else self._now + limit
        queue = self._queue
        while process.state is PENDING:
            if deadline is not None and (
                self._now > deadline
                or (queue and queue[0][0] > deadline)
            ):
                raise SimError(f"process {process.name!r} did not finish within {limit}s")
            if not queue:
                raise SimError(f"deadlock: queue drained before {process.name!r} finished")
            when, _seq, callback = heapq.heappop(queue)
            self._now = when
            self.events_processed += 1
            callback()
        if process.state == "failed":
            raise process.exception
        return process.value


# ----------------------------------------------------------------------
# Programs
# ----------------------------------------------------------------------

EVENTS = 3  # shared events that actions succeed and processes wait on

# Zero is drawn often, so instants are shared; 1e-18 is a positive
# delay that vanishes in ``now + delay`` once ``now >= 1``.
delays = st.sampled_from([0.0, 0.0, 0.0, 1e-18, 0.5, 1.0, 1.0, 2.0])
picks = st.integers(min_value=0, max_value=7)


def _actions(leaf_or_nested):
    children = st.lists(leaf_or_nested, max_size=3)
    steps = st.lists(st.one_of(
        st.tuples(st.just("sleep"), delays),
        st.tuples(st.just("wait"), st.integers(0, EVENTS - 1)),
        st.tuples(st.just("join"), picks),
        st.tuples(st.just("all-none")),
        st.tuples(st.just("do"), children),
    ), max_size=4)
    return st.one_of(
        st.tuples(st.just("soon"), children),
        st.tuples(st.just("later"), delays, children),
        st.tuples(st.just("timer"), delays, children),
        st.tuples(st.just("spawn"), steps),
    )


_leaves = st.one_of(
    st.tuples(st.just("kill"), picks),
    st.tuples(st.just("succeed"), st.integers(0, EVENTS - 1)),
    st.tuples(st.just("cancel"), picks),
    st.tuples(st.just("mark")),
)
actions = st.recursive(_leaves, _actions, max_leaves=25)
programs = st.lists(actions, min_size=1, max_size=5)


class Interpreter:
    """Runs a program on one kernel and records ``(label, now)``."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.trace = []
        self.events = [kernel.event(name=f"e{i}") for i in range(EVENTS)]
        self.procs = []
        self.timers = []

    def note(self, label):
        self.trace.append((label, self.kernel.now))

    def later(self, label, children):
        def fire(*_event):
            self.note(label)
            self.do(label, children)
        return fire

    def do(self, path, program):
        kernel = self.kernel
        for index, action in enumerate(program):
            label = f"{path}.{index}"
            kind = action[0]
            if kind == "mark":
                self.note(label)
            elif kind == "soon":
                kernel.call_soon(self.later(label, action[1]))
            elif kind == "later":
                kernel.call_later(action[1], self.later(label, action[2]))
            elif kind == "timer":
                timer = kernel.sleep(action[1])
                self.timers.append(timer)
                timer.add_callback(self.later(label, action[2]))
            elif kind == "spawn":
                process = kernel.spawn(self.steps(label, action[1]), name=label)
                self.procs.append(process)
                process.add_callback(
                    lambda p, label=label: self.note(f"{label}:{p.state}"))
            elif kind == "kill":
                if self.procs:
                    self.procs[action[1] % len(self.procs)].kill(label)
            elif kind == "succeed":
                event = self.events[action[1]]
                if not event.triggered:
                    event.succeed(label)
            elif kind == "cancel":
                if self.timers:
                    self.timers[action[1] % len(self.timers)].cancel()

    def steps(self, path, steps):
        kernel = self.kernel
        self.note(f"{path}:start")
        for index, step in enumerate(steps):
            label = f"{path}/{index}"
            kind = step[0]
            if kind == "sleep":
                timer = kernel.sleep(step[1])
                self.timers.append(timer)
                yield timer
            elif kind == "wait":
                yield self.events[step[1]]
            elif kind == "join":
                if self.procs:
                    yield self.procs[step[1] % len(self.procs)]
            elif kind == "all-none":
                yield kernel.all_of([])
            elif kind == "do":
                self.do(label, step[1])
            self.note(label)
        return path


def outcome(interpreter, error):
    kernel = interpreter.kernel
    return {
        "trace": interpreter.trace,
        # The oracle never inlines, so its count is the whole identity.
        "events_processed": kernel.events_processed
        + kernel.dispatches_inlined,
        "now": kernel.now,
        "error": error,
        "timers_cancelled": kernel.timers_cancelled,
        "dead_entries_skipped": kernel.dead_entries_skipped,
        "dead_entries_pending": kernel.dead_entries_pending,
    }


def both(drive):
    """``drive(interpreter)`` on the oracle and on the kernel."""
    results = []
    for kernel_class in (SingleHeapKernel, Kernel):
        interpreter = Interpreter(kernel_class(seed=0))
        try:
            drive(interpreter)
            error = None
        except (SimError, ZeroDivisionError) as exc:
            error = f"{type(exc).__name__}: {exc}"
        results.append(outcome(interpreter, error))
    return results


ORDER = settings(max_examples=150, deadline=None)


@ORDER
@given(programs)
def test_run_matches_the_single_heap(program):
    def drive(interpreter):
        interpreter.do("p", program)
        interpreter.kernel.run()

    oracle, kernel = both(drive)
    assert kernel == oracle


@ORDER
@given(st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0, 1.5, -0.5]),
                          st.lists(actions, max_size=3)),
                min_size=1, max_size=4))
def test_run_until_matches_the_single_heap(rounds):
    """Between ``run(until=)`` calls the program schedules more from
    outside the loop; a horizon in the past raises on both."""
    def drive(interpreter):
        kernel = interpreter.kernel
        for index, (step, program) in enumerate(rounds):
            interpreter.do(f"r{index}", program)
            kernel.run(until=kernel.now + step)
        kernel.run()

    oracle, kernel = both(drive)
    assert kernel == oracle


@ORDER
@given(programs,
       st.lists(st.one_of(st.tuples(st.just("sleep"), delays),
                          st.tuples(st.just("wait"), st.integers(0, EVENTS - 1))),
                max_size=3),
       st.one_of(st.none(), st.sampled_from([-0.5, 0.0, 0.5, 1.0, 3.0])),
       st.booleans())
def test_run_until_complete_matches_the_single_heap(program, waits, limit, fail):
    """The main process runs the program, then waits; it finishes,
    fails, misses its deadline or deadlocks. Whatever is left queued is
    drained with ``run()`` afterwards, so the order must also hold
    across a return in the middle of an instant."""
    def main(interpreter):
        interpreter.do("p", program)
        for index, step in enumerate(waits):
            if step[0] == "sleep":
                yield interpreter.kernel.sleep(step[1])
            else:
                yield interpreter.events[step[1]]
            interpreter.note(f"main/{index}")
        if fail:
            1 / 0
        return "main"

    def drive(interpreter):
        kernel = interpreter.kernel
        process = kernel.spawn(main(interpreter), name="main")
        try:
            interpreter.note(kernel.run_until_complete(process, limit=limit))
        finally:
            kernel.run()

    oracle, kernel = both(drive)
    assert kernel == oracle


@ORDER
@given(programs, delays, st.one_of(st.none(), st.sampled_from([0.0, 0.5, 3.0])))
def test_run_until_complete_on_a_timer_matches_the_single_heap(
        program, delay, limit):
    """The target is a timer, with a callback and a process waiting on
    it. A lone one runs them before ``run_until_complete`` returns,
    where the oracle's hop runs them in the ``run()`` after: the trace
    after that ``run()`` is the same, and so is the count."""
    def waiter(interpreter, timer):
        value = yield timer
        interpreter.note(f"waiter:{value}")

    def drive(interpreter):
        kernel = interpreter.kernel
        interpreter.do("p", program)
        timer = kernel.sleep(delay)
        timer.add_callback(interpreter.later("target", [("mark",)]))
        kernel.spawn(waiter(interpreter, timer), name="waiter")
        returned = "raised"
        try:
            returned = kernel.run_until_complete(timer, limit=limit)
        finally:
            kernel.run()
            interpreter.note(f"returned:{returned}")

    oracle, kernel = both(drive)
    assert kernel == oracle


@ORDER
@given(programs, delays)
def test_run_until_ending_on_a_timer_matches_the_single_heap(program, delay):
    """The horizon is the timer's instant: its waiters run before
    ``run(until=)`` returns, inline or after the oracle's hop."""
    def drive(interpreter):
        kernel = interpreter.kernel
        interpreter.do("p", program)
        timer = kernel.sleep(delay)
        timer.add_callback(interpreter.later("edge", [("mark",)]))
        kernel.run(until=kernel.now + delay)
        interpreter.note("returned")
        kernel.run()

    oracle, kernel = both(drive)
    assert kernel == oracle


QUIET = ["deadline", "heartbeat", "poke", "tick", "other"]


@ORDER
@given(st.permutations(QUIET))
def test_quiet_wakes_at_one_instant_match_the_single_heap(order):
    """The three entries that end a quiet wait — an RPC's deadline, a
    Raft replicator's idle wait (its heartbeat entry, and a poke) and a
    poll tick — all due at ``HEARTBEAT``, beside a bare entry due then
    too. They are set up one per hop, in ``order``, so their entries
    are queued in that order; each runs its hop inline or queued by the
    same rule a timer does, so both kernels run them alike."""
    def drive(interpreter):
        kernel = interpreter.kernel
        network = Network(kernel, MetricsRegistry())
        server = Server(kernel, network, "svc")

        def slow(_request):
            yield kernel.sleep(1.0)

        server.add_method("slow", slow).start()
        idle = []

        def waiter():
            yield idle[0]
            interpreter.note("idle-woke")

        def set_up(item):
            if item == "deadline":
                call = network.call("svc", "slow", None, deadline=HEARTBEAT)
                call.add_callback(lambda c: interpreter.note(
                    f"deadline:{type(c.exception).__name__}"))
            elif item == "heartbeat":
                idle.append(_Idle(kernel))
                kernel.spawn(waiter())
            elif item == "poke":
                def poke():
                    interpreter.note("poke")
                    idle[0].poke()
                    kernel.call_soon(lambda: interpreter.note("after-poke"))

                kernel.call_later(HEARTBEAT, poke)
            elif item == "tick":
                Periodic(kernel, "tick", lambda: interpreter.note("tick"),
                         HEARTBEAT, sleep_first=True).start()
            else:
                kernel.call_later(HEARTBEAT, lambda: interpreter.note("other"))

        def chain(items):
            if items:
                set_up(items[0])
                kernel.call_soon(lambda: chain(items[1:]))

        chain(order)
        kernel.run(until=1.5 * HEARTBEAT)
        kernel.run(until=2.0)

    oracle, kernel = both(drive)
    assert kernel == oracle
    assert {label for label, _now in kernel["trace"]} >= {
        "idle-woke", "poke", "tick", "other", "deadline:DeadlineExceeded"}


def test_a_lone_timer_wakes_inline():
    """A timer that fires with nothing else due runs its waiters in its
    own entry; one that fires behind other entries keeps its hop."""
    kernel = Kernel()
    woke = []

    def sleeper():
        yield kernel.sleep(1.0)
        woke.append(kernel.now)

    kernel.spawn(sleeper())
    kernel.run()
    # The start and the timer; the timer's hop ran inline.
    assert (kernel.events_processed, kernel.dispatches_inlined) == (2, 1)

    timer = kernel.sleep(1.0)
    timer.add_callback(lambda _t: woke.append(kernel.now))
    kernel.call_later(1.0, lambda: None)  # due at the timer's instant
    kernel.run()
    assert woke == [1.0, 2.0]
    assert (kernel.events_processed, kernel.dispatches_inlined) == (5, 1)


def test_zero_delay_hops_skip_the_heap():
    """A thousand process starts, their zero-delay sleeps and dispatch
    hops, and a thousand ``call_soon``s leave the heap holding only the
    one entry that is due later; every hop is still an event."""
    kernel = Kernel()
    heap_sizes = []

    def proc():
        heap_sizes.append(len(kernel._queue))
        yield kernel.sleep(0)
        heap_sizes.append(len(kernel._queue))

    for _ in range(1000):
        kernel.spawn(proc())
        kernel.call_soon(lambda: heap_sizes.append(len(kernel._queue)))
    fired = []
    kernel.call_later(1.0, lambda: fired.append(kernel.now))
    assert len(kernel._queue) == 1
    kernel.run()
    assert heap_sizes == [1] * 3000
    assert fired == [1.0]
    # Per process: its start, its timer and the timer's dispatch hop,
    # which no timer inlines: each fires with the next one queued.
    assert kernel.events_processed == 3 * 1000 + 1000 + 1
    assert kernel.dispatches_inlined == 0
