"""What the control plane's quiet traffic costs the kernel, counted.

An idle 3-member etcd cluster (Raft heartbeats, each RPC with its
deadline) and a poll loop on a fixed interval are the traffic a quiet
platform is made of. Each of their wakes is one queue entry (DESIGN.md
"A quiet wake is one queue entry"): an idle replicator waits on one
object that is its heartbeat timer and its poke, an RPC is its own
deadline entry, and a tick runs its pass in the tick's hop. The counts
below are exact for the seed and involve no host clock; a change that
builds a timer, an ``AnyOf`` or a process on one of these paths again
moves them.
"""

import sys
from collections import Counter

import pytest

from repro.grpcnet import Network
from repro.sim import Kernel, MetricsRegistry, Periodic
from repro.sim.events import AnyOf
from repro.sim.process import Process

from ..observers import etcd_cluster


class SleepCountingKernel(Kernel):
    """Counts ``sleep`` calls by the function that made them."""

    def __init__(self, seed=0):
        super().__init__(seed)
        self.sleeps = Counter()

    def sleep(self, delay):
        self.sleeps[sys._getframe(1).f_code.co_qualname] += 1
        return super().sleep(delay)


@pytest.fixture
def built(monkeypatch):
    """How many ``AnyOf``s and ``Process``es were constructed."""
    counts = Counter()
    for cls in (AnyOf, Process):
        init = cls.__init__

        def counted(self, *args, _init=init, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return counts


def test_an_idle_etcd_cluster(built):
    kernel = SleepCountingKernel(seed=0)
    metrics = MetricsRegistry()
    network = Network(kernel, metrics)
    cluster = etcd_cluster(kernel, network).start()
    kernel.run(until=10.0)
    assert cluster.leader().current_term == 1
    # etcd-0 wins at 1.53 s, its first draw from [ELECTION_MIN,
    # ELECTION_MAX): two votes, the no-op append to each follower, and
    # one send each of the commit index that append's ack advanced.
    # Then a replicator waits HEARTBEAT after each ack, a round of
    # 0.1 s plus a 1.5 ms round trip: 83 rounds of two heartbeats in
    # the 8.47 s left. 2 + 2 + 2 + 166 = 172 calls, and every call's
    # deadline entry is reached dead but the last two, due after 10 s.
    calls = sum(child.value for _labels, child in
                metrics.get("rpc_client_calls_total").children())
    assert calls == kernel.timers_cancelled == 172
    assert kernel.dead_entries_skipped == 170
    # About seven events per call and one per election-timer sleep
    # (7 * 172 + 26 = 1230); a heartbeat wait or timer wake that fires
    # into an empty ready queue runs inline.
    assert (kernel.events_processed, kernel.dispatches_inlined) == (1239, 205)
    # The election timers are all that still sleeps: not the idle
    # replicators, not the deadlines, not the lease sweep. Six sleeps
    # up to the election, then about one per node per mean timeout
    # (1.5 s).
    assert kernel.sleeps == {"RaftNode._election_timer": 26}
    assert built["AnyOf"] == 0
    # Three election timers, two vote requests, two replicators.
    assert built["Process"] == 7


def test_a_write_pokes_the_idle_replicators():
    """A proposal at a quiet instant pokes both caught-up replicators:
    each wakes two hops later, as it did through a poke ``Event`` and an
    ``AnyOf``, and its heartbeat entry is reached dead, counted as the
    timer it stands for was when cancelled."""
    kernel = Kernel(seed=0)
    network = Network(kernel, MetricsRegistry())
    cluster = etcd_cluster(kernel, network).start()
    kernel.run(until=10.0)
    counts = (kernel.events_processed, kernel.dispatches_inlined,
              kernel.timers_cancelled, kernel.dead_entries_skipped)
    assert counts == (1239, 205, 172, 170)  # test_an_idle_etcd_cluster
    call = network.call(cluster.leader().node_id, "propose",
                        {"op": "put", "key": "k", "value": 1})
    kernel.run(until=10.2)
    assert call.value == {"ok": True, "revision": 1}
    # Two poked waits, two appends, two sends of the commit index they
    # advanced, and the two heartbeats one HEARTBEAT after those acks:
    # 8 more cancelled, and those 8 plus the 2 deadlines pending at
    # 10 s reached dead.
    assert (kernel.events_processed, kernel.dispatches_inlined,
            kernel.timers_cancelled, kernel.dead_entries_skipped) == (
        1288, 209, 180, 180)


def test_a_plain_bodied_loop_spawns_nothing(built):
    kernel = SleepCountingKernel(seed=0)
    ticks = []
    Periodic(kernel, "loop", lambda: ticks.append(kernel.now), 1.0).start()
    kernel.run(until=99.5)
    assert len(ticks) == 100
    # The start hop, then one entry per tick whose hop runs inline.
    assert (kernel.events_processed, kernel.dispatches_inlined) == (100, 99)
    assert built["Process"] == 0 and not kernel.sleeps


def test_a_generator_pass_gets_a_process_only_while_suspended(built):
    kernel = Kernel(seed=0)
    passes = []

    def body():
        passes.append(kernel.now)
        if len(passes) % 2:
            yield kernel.sleep(0.25)

    Periodic(kernel, "loop", body, 1.0).start()
    kernel.run(until=10.0)
    assert len(passes) == 9
    assert built["Process"] == 5  # the five passes that slept
