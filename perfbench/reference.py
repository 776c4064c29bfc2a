"""A yardstick for the machine: fixed work, timed beside every iteration.

The box this benchmark was written on is shared. Twice in three hours
it ran everything 25-55 % slower for four minutes at a stretch — CPU time
as well as wall time, set-up and measured window alike — which no bound
survives. So host cost is reported as CPU time divided by the CPU time of
this loop, taken just before and just after the iteration: in such a
stretch both grow together. The loop is pure Python with the simulator's
habits (a heap of timestamped tuples, a generator resumed per event, a
dict of small tuples) and no code of the repo in it, so a change to the
repo cannot move the yardstick.
"""

import heapq
import statistics
import time

SAMPLES = 2


def reference_work():
    heap = []
    table = {}
    push, pop = heapq.heappush, heapq.heappop

    def ticker():
        total = 0
        while True:
            total += (yield total) or 0

    resumed = ticker()
    next(resumed)
    now = 0.0
    for seq in range(150_000):
        push(heap, (now + (seq * 7919 % 1009) * 0.001, seq, None))
        if seq & 1:
            now, key, _ = pop(heap)
            table[key % 50_000] = (now, key)
            resumed.send(1)
    while heap:
        pop(heap)


def _samples():
    out = []
    for _ in range(SAMPLES):
        started = time.process_time()
        reference_work()
        out.append(time.process_time() - started)
    return out


class Reference:
    """Times the loop between iterations; each set of samples closes one
    iteration and opens the next."""

    def __init__(self):
        self._before = _samples()

    def since_last(self):
        """CPU seconds of one pass of the loop around the iteration that
        just ended: the median of the samples before and after it."""
        before, self._before = self._before, _samples()
        return statistics.median(before + self._before)
