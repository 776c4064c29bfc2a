"""Kernel fast-path semantics: cancellable timers, lazy heap deletion,
callback detachment, and the run_until_complete deadline check."""

import pytest

from repro.sim.errors import SimError
from repro.sim.events import CANCELLED
from repro.sim.kernel import Kernel


class TestTimerCancellation:
    def test_cancelled_timer_never_fires(self):
        kernel = Kernel()
        timer = kernel.sleep(5.0)
        fired = []
        timer.add_callback(fired.append)
        timer.cancel()
        kernel.run()
        assert fired == []
        assert timer.state is CANCELLED
        assert kernel.timers_cancelled == 1

    def test_lazy_deletion_counts_dead_pops(self):
        kernel = Kernel()
        timer = kernel.sleep(5.0)
        timer.cancel()
        assert kernel.dead_entries_pending == 1
        kernel.run()  # the dead entry pops and is skipped, not dispatched
        assert kernel.dead_entries_skipped == 1
        assert kernel.dead_entries_pending == 0
        assert kernel.dead_entry_ratio == pytest.approx(1.0)

    def test_cancel_after_fire_is_noop(self):
        kernel = Kernel()
        timer = kernel.sleep(1.0)
        kernel.run()
        assert timer.ok
        timer.cancel()
        assert timer.ok  # still succeeded, not cancelled
        assert kernel.timers_cancelled == 0

    def test_add_callback_on_cancelled_event_raises(self):
        kernel = Kernel()
        timer = kernel.sleep(1.0)
        timer.cancel()
        with pytest.raises(RuntimeError):
            timer.add_callback(lambda ev: None)


class TestAnyOfDetachment:
    def test_loser_callbacks_detached_after_race(self):
        kernel = Kernel()
        fast = kernel.sleep(1.0)
        slow = kernel.event()  # long-lived loser (e.g. a stop event)
        results = []

        def proc():
            winner, value = yield kernel.any_of([fast, slow])
            results.append(winner)

        kernel.spawn(proc())
        kernel.run()
        assert results == [fast]
        # The composite removed itself from the loser: repeated races
        # against a long-lived event must not accumulate callbacks.
        assert slow._callbacks == []

    def test_repeated_races_do_not_accumulate(self):
        kernel = Kernel()
        stop = kernel.event()

        def racer():
            for _ in range(50):
                yield kernel.any_of([kernel.sleep(0.1), stop])

        kernel.spawn(racer())
        kernel.run()
        assert stop._callbacks == []


class TestRunUntilCompleteDeadline:
    def test_limit_enforced_against_future_queue(self):
        kernel = Kernel()

        def hangs():
            yield kernel.sleep(100.0)

        process = kernel.spawn(hangs())
        with pytest.raises(SimError, match="did not finish"):
            kernel.run_until_complete(process, limit=10.0)
        # The clock must not have run past the deadline chasing the
        # out-of-range timer.
        assert kernel.now <= 10.0

    def test_deadlock_detected(self):
        kernel = Kernel()

        def waits_forever():
            yield kernel.event()

        process = kernel.spawn(waits_forever())
        with pytest.raises(SimError, match="deadlock"):
            kernel.run_until_complete(process, limit=10.0)

    def test_counts_events(self):
        kernel = Kernel()

        def proc():
            for _ in range(5):
                yield kernel.sleep(1.0)

        kernel.run_until_complete(kernel.spawn(proc()))
        assert kernel.events_processed > 0
