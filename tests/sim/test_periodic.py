"""``repro.sim.Periodic`` on a bare kernel: phases, bodies, edge cases.

What every *holder* of one inherits is checked class by class in
``tests/integration/test_lifecycle_contract.py``; this file covers what
only the primitive itself can get wrong.
"""

import pytest

from repro.sim import Kernel, Periodic, ProcessKilled


@pytest.fixture
def kernel():
    return Kernel(seed=1)


def ticking(kernel, **kwargs):
    ticks = []
    loop = Periodic(kernel, "loop", lambda: ticks.append(kernel.now), 1.0,
                    **kwargs)
    return loop, ticks


def test_work_first_ticks_at_start_then_every_interval(kernel):
    loop, ticks = ticking(kernel)
    loop.start()
    kernel.run(until=2.5)
    assert ticks == [0.0, 1.0, 2.0]


def test_sleep_first_waits_one_interval(kernel):
    loop, ticks = ticking(kernel, sleep_first=True)
    loop.start()
    kernel.run(until=2.5)
    assert ticks == [1.0, 2.0]


def test_interval_must_be_positive(kernel):
    with pytest.raises(ValueError):
        Periodic(kernel, "loop", lambda: None, 0)


def test_generator_body_runs_to_completion_before_the_sleep(kernel):
    done = []

    def body():
        yield kernel.sleep(0.25)
        done.append(kernel.now)

    Periodic(kernel, "loop", body, 1.0).start()
    kernel.run(until=3.0)
    assert done == [0.25, 1.5, 2.75]  # period = pass + interval


def test_setup_runs_once_per_start_before_the_first_interval(kernel):
    log = []

    def setup():
        yield kernel.sleep(0.5)
        log.append(("setup", kernel.now))

    loop = Periodic(kernel, "loop", lambda: log.append(("tick", kernel.now)),
                    1.0, sleep_first=True, setup=setup)
    loop.start()
    kernel.run(until=2.0)
    loop.stop()
    loop.start()
    kernel.run(until=4.0)
    assert log == [("setup", 0.5), ("tick", 1.5),
                   ("setup", 2.5), ("tick", 3.5)]


def test_a_failed_setup_ends_the_loop_and_start_retries_it(kernel):
    attempts = []

    def setup():
        attempts.append(kernel.now)
        if len(attempts) == 1:
            raise RuntimeError("store unavailable")
        yield kernel.sleep(0.0)

    loop, ticks = ticking(kernel, setup=setup)
    loop.start()
    kernel.run(until=1.0)
    assert not loop.running and ticks == []
    loop.start()
    kernel.run(until=1.5)
    assert loop.running and ticks == [1.0]


def test_a_pass_that_raises_ends_the_loop_and_start_revives_it(kernel):
    ticks = []

    def body():
        ticks.append(kernel.now)
        if len(ticks) == 2:
            raise RuntimeError("bad resource")

    loop = Periodic(kernel, "loop", body, 1.0)
    loop.start()
    kernel.run(until=3.5)
    assert ticks == [0.0, 1.0] and not loop.running
    loop.start()
    kernel.run(until=4.0)
    assert ticks == [0.0, 1.0, 3.5] and loop.running


def test_a_body_may_stop_its_own_loop(kernel):
    ticks = []

    def body():
        ticks.append(kernel.now)
        if len(ticks) == 2:
            loop.stop()

    loop = Periodic(kernel, "loop", body, 1.0)
    loop.start()
    kernel.run(until=5.0)
    assert ticks == [0.0, 1.0] and not loop.running


def test_stop_between_timer_fire_and_dispatch_runs_no_more_pass(kernel):
    """The tick has fired (its hop is queued) when stop() lands at the
    same instant: the pass must not run."""
    loop, ticks = ticking(kernel)
    loop.start()
    kernel.run(until=0.0)  # first pass done, the t=1.0 tick is queued
    # Queued after that tick and so popped after it, but before the
    # hop the tick queues when it fires.
    kernel.call_later(1.0, loop.stop)
    kernel.run(until=3.0)
    assert ticks == [0.0]


def test_stop_reason_reaches_the_killed_process(kernel):
    """A stop() that lands while a generator pass is suspended kills
    the pass's process with the stop's reason, at that instant."""
    killed = []

    def body():
        try:
            yield kernel.sleep(1.0)
        except ProcessKilled as exc:
            killed.append((exc.reason, kernel.now))
            raise

    loop = Periodic(kernel, "loop", body, 1.0)
    loop.start()
    kernel.run(until=0.5)
    loop.stop("node n1 crashed")
    kernel.run(until=3.0)
    assert killed == [("node n1 crashed", 0.5)] and not loop.running
