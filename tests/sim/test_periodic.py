"""``repro.sim.Periodic`` on a bare kernel: phases, bodies, edge cases.

What every *holder* of one inherits is checked class by class in
``tests/integration/test_lifecycle_contract.py``; this file covers what
only the primitive itself can get wrong.
"""

import pytest

from repro.sim import Kernel, Periodic


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
    """The timer has fired (its dispatch entry is queued) when stop()
    lands at the same instant: the pass must not run."""
    loop, ticks = ticking(kernel)
    loop.start()
    kernel.run(until=0.0)  # first pass done, the t=1.0 timer is queued
    # Queued after that timer and so popped after it, but before the
    # dispatch entry the timer queues when it fires.
    kernel.call_later(1.0, loop.stop)
    kernel.run(until=3.0)
    assert ticks == [0.0]


def test_stop_reason_reaches_the_killed_process(kernel):
    loop, _ticks = ticking(kernel)
    loop.start()
    proc = loop._proc
    kernel.run(until=0.5)
    loop.stop("node n1 crashed")
    kernel.run(until=0.5)
    assert not proc.alive and proc.exception.reason == "node n1 crashed"


def test_spawn_hands_the_loop_process_to_its_holder(kernel):
    """A holder that keeps books of its processes (the kubelet) spawns
    the loop itself, at every start, under its own naming."""
    owned = []

    def spawn(generator, name):
        owned.append(kernel.spawn(generator, name=f"holder:{name}"))
        return owned[-1]

    loop, ticks = ticking(kernel, spawn=spawn)
    loop.start().start()
    kernel.run(until=0.5)
    assert [p.name for p in owned] == ["holder:loop"] and loop.running
    owned[0].kill("holder died")  # the holder's own sweep, not stop()
    kernel.run(until=1.5)
    assert ticks == [0.0] and not loop.running
    loop.start()
    kernel.run(until=1.5)
    assert len(owned) == 2 and ticks == [0.0, 1.5]
