"""Write-budget ratchet: what a learner costs the shared etcd, counted.

The controller publishes a learner's report when it *changes*
(DESIGN.md "A quiet job is quiet"). It used to stamp every report with
its own poll's clock, so each 0.5 s resync re-put every learner — two
Raft writes a second per learner that said nothing new, each waking a
Guardian pass. The counts below are exact, beside
``test_guardian_read_budget.py``: a learner whose files stand costs no
``propose`` and no pass between resyncs; a stall is found at its
deadline, not by polling for it.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import helpers, layout
from repro.core.helpers import (
    CONTROLLER_POLL,
    CONTROLLER_RESYNC,
    HELPER_DONE,
    HELPER_INIT_TIME,
    STALLED,
    _apply_stall_detection,
    _learner_report,
    _nfs_source,
    make_controller_workload,
)
from repro.core.learner import write_learner_status
from repro.nfs import SharedFilesystem
from repro.raftkv import EtcdClient

from ..integration.conftest import make_platform

JOB = "job-1"


@pytest.fixture
def puts(monkeypatch):
    """Every ``EtcdClient.put`` as ``(time, client id, key, value)``."""
    seen = []
    plain_put = EtcdClient.put

    def recording_put(self, key, value, lease=None):
        seen.append((self.kernel.now, self.client_id, key, value))
        return plain_put(self, key, value, lease=lease)

    monkeypatch.setattr(EtcdClient, "put", recording_put)
    return seen


@pytest.fixture
def passes(monkeypatch):
    """Every controller pass over a learner that has files, as
    ``(time, ordinal)``: stall detection runs once per such pass and is
    handed the pass's clock."""
    seen = []
    plain = helpers._apply_stall_detection

    def counted(report, ordinal, freshness, now, stall_timeout):
        seen.append((now, ordinal))
        return plain(report, ordinal, freshness, now, stall_timeout)

    monkeypatch.setattr(helpers, "_apply_stall_detection", counted)
    return seen


def start_controller(platform, uid="uid-a", learners=1):
    """The controller container of ``JOB`` over a volume of its own,
    without the rest of the job: the test plays the learner."""
    platform.nfs.create_volume("vol", exist_ok=True)
    mount = platform.nfs.mount("vol")
    ctx = SimpleNamespace(
        kernel=platform.kernel, mounts={"job": mount},
        pod=SimpleNamespace(metadata=SimpleNamespace(uid=uid)),
        stop_event=platform.kernel.event())
    workload = make_controller_workload(
        platform, JOB, SimpleNamespace(learners=learners))
    platform.kernel.spawn(workload(ctx), name=f"controller-{uid}")
    return mount, ctx


def learner_puts(puts, ordinal=0):
    key = layout.learner_status_key(JOB, ordinal)
    return [(when, value) for when, _client, k, value in puts if k == key]


class TestQuietLearner:
    def test_unchanged_files_cost_no_propose_and_no_pass(self, rpcs, passes):
        platform = make_platform()
        mount, _ctx = start_controller(platform)
        write_learner_status(mount, 0, "PROCESSING", 10, platform.kernel.now,
                             loss=0.5)
        platform.run_for(5.0)
        del rpcs[:], passes[:]
        platform.run_for(30.0)

        assert [method for caller, _address, method, _request in rpcs
                if caller.startswith("controller-")] == []
        # What is left is the safety net, at its own cadence.
        times = [when for when, _ordinal in passes]
        assert len(times) == 3
        assert [round(b - a, 9) for a, b in zip(times, times[1:])] \
            == [CONTROLLER_RESYNC] * 2

    def test_one_put_per_changed_report(self, puts):
        platform = make_platform()
        mount, _ctx = start_controller(platform)
        platform.run_for(HELPER_INIT_TIME + 1.0)
        for step in (10, 20, 30, 40):
            write_learner_status(mount, 0, "PROCESSING", step,
                                 platform.kernel.now)
            platform.run_for(1.0)
        platform.run_for(30.0)
        assert [value["step"] for _when, value in learner_puts(puts)] \
            == [10, 20, 30, 40]

    def test_a_burst_costs_the_leading_and_the_trailing_edge(self, puts):
        platform = make_platform()
        mount, _ctx = start_controller(platform)
        platform.run_for(HELPER_INIT_TIME + 1.0)
        first = platform.kernel.now
        write_learner_status(mount, 0, "WAITING_DATA", 0, first)
        platform.run_for(0.1)
        write_learner_status(mount, 0, "PROCESSING", 0, platform.kernel.now)
        platform.run_for(0.1)
        write_learner_status(mount, 0, "PROCESSING", 20, platform.kernel.now)
        platform.run_for(5.0)

        published = learner_puts(puts)
        assert [(value["status"], value["step"]) for _when, value in published] \
            == [("WAITING_DATA", 0), ("PROCESSING", 20)]
        # The first write is published when it happens; the two behind
        # it ride the end of its window as one put.
        assert published[0][0] == first
        assert published[1][0] == pytest.approx(first + CONTROLLER_POLL)

    def test_a_steady_writer_costs_at_most_one_put_per_window(self, puts):
        platform = make_platform()
        mount, _ctx = start_controller(platform)
        platform.run_for(HELPER_INIT_TIME + 1.0)
        for step in range(50):  # a write every 0.3 s
            write_learner_status(mount, 0, "PROCESSING", step,
                                 platform.kernel.now)
            platform.run_for(0.3)
        # One put a window, plus what a resync tick that lands inside a
        # window may add (it reads whatever is there when it runs).
        seconds = 50 * 0.3
        assert len(learner_puts(puts)) \
            <= seconds / CONTROLLER_POLL + 1 + seconds // CONTROLLER_RESYNC

    def test_a_restarted_controller_republishes_each_key_once(self, puts):
        platform = make_platform()
        mount, ctx = start_controller(platform, uid="uid-a", learners=2)
        write_learner_status(mount, 0, "PROCESSING", 10, platform.kernel.now)
        write_learner_status(mount, 1, "PROCESSING", 12, platform.kernel.now)
        mount.write_file("/helper/load-data.status", HELPER_DONE)
        platform.run_for(5.0)
        ctx.stop_event.succeed()
        platform.run_for(1.0)
        del puts[:]

        start_controller(platform, uid="uid-b", learners=2)
        platform.run_for(30.0)
        # Nothing is remembered across incarnations, so each key that
        # has a file is written once, and then stands.
        assert sorted(key for _t, client, key, _v in puts
                      if client.endswith("uid-b")) == sorted([
            layout.learner_status_key(JOB, 0),
            layout.learner_status_key(JOB, 1),
            layout.helper_status_key(JOB, "load-data")])


class TestStallDeadline:
    def test_stalled_is_reported_at_the_deadline_without_polling(
            self, puts, passes):
        stall_timeout = 8.0
        platform = make_platform(stall_timeout=stall_timeout)
        started = platform.kernel.now
        mount, _ctx = start_controller(platform)
        # Just behind the first resync tick, so that the whole stall
        # window lies between two of them.
        platform.run_for(HELPER_INIT_TIME + CONTROLLER_RESYNC + 0.5)
        since = platform.kernel.now
        assert since + stall_timeout + CONTROLLER_POLL \
            < started + HELPER_INIT_TIME + 2 * CONTROLLER_RESYNC
        write_learner_status(mount, 0, "PROCESSING", 5, since)
        platform.run_for(1.0)
        del passes[:]
        platform.run_for(stall_timeout + 2.0)

        deadline = since + stall_timeout
        published = learner_puts(puts)
        assert [value["status"] for _when, value in published[:2]] \
            == ["PROCESSING", STALLED]
        assert deadline <= published[1][0] <= deadline + CONTROLLER_POLL
        # No pass looked for the stall before it was due.
        assert min(when for when, _ordinal in passes) >= deadline
        # While it lasts the report grows, one put a window: that is
        # what lets the Guardian retry a restart after its cooldown.
        stalled = [(when, value["stalled_for"]) for when, value in published
                   if value["status"] == STALLED]
        assert len(stalled) >= 3
        assert all(b[1] > a[1] for a, b in zip(stalled, stalled[1:]))
        assert stalled[1][0] - stalled[0][0] >= CONTROLLER_POLL

    def test_progress_moves_the_deadline(self, puts):
        platform = make_platform(stall_timeout=4.0)
        mount, _ctx = start_controller(platform)
        platform.run_for(HELPER_INIT_TIME + 1.0)
        for step in range(8):  # progress every 3 s, under the timeout
            write_learner_status(mount, 0, "PROCESSING", step,
                                 platform.kernel.now)
            platform.run_for(3.0)
        assert STALLED not in [value["status"]
                               for _when, value in learner_puts(puts)]


class RecordingQueue:
    def __init__(self):
        self.added = []

    def add(self, key):
        self.added.append(key)

    def add_after(self, key, delay):
        self.added.append((key, delay))


class TestWhatCountsAsStatus:
    def test_only_status_and_exit_code_enqueue_the_learner(self):
        fs = SharedFilesystem()
        queue = RecordingQueue()
        source = _nfs_source(fs, SimpleNamespace(now=0.0))
        source.bind(queue)
        source.subscribe()
        # The log belongs to the log collector; markers are not status.
        fs.append_line(layout.learner_log_file(0), "step 1")
        fs.write_file(f"{layout.learner_dir(0)}/joined", "1")
        fs.write_file(f"{layout.learner_dir(0)}/hang-injected", "1")
        fs.delete(f"{layout.learner_dir(0)}/joined")
        assert queue.added == []
        fs.write_file(layout.learner_status_file(0), "{}")
        fs.write_file(layout.learner_exit_file(0), "0")
        assert queue.added == [("learner-0", 0.0), "learner-0",
                               "store-trigger"]


STATUS_FILES = st.one_of(
    st.none(),
    st.tuples(st.sampled_from(["WAITING_DATA", "PROCESSING", "COMPLETED",
                               "FAILED", "HALTED"]),
              st.integers(0, 500), st.floats(0.0, 100.0),
              st.one_of(st.none(), st.floats(0.0, 10.0))))
EXIT_FILES = st.sampled_from([None, "0", "1", "143"])
HELPER_FILES = st.sets(st.sampled_from(["joined", "hang-injected",
                                        "training.log"]))


class TestReportIsAFunctionOfTheFiles:
    @settings(max_examples=200, deadline=None)
    @given(status=STATUS_FILES, exit_code=EXIT_FILES, others=HELPER_FILES,
           later=st.floats(0.1, 50.0))
    def test_a_second_pass_over_unchanged_files_publishes_nothing(
            self, status, exit_code, others, later):
        clock = [100.0]
        fs = SharedFilesystem(clock=lambda: clock[0])
        if status is not None:
            phase, step, when, loss = status
            write_learner_status(fs, 0, phase, step, when, loss=loss)
        if exit_code is not None:
            fs.write_file(layout.learner_exit_file(0), exit_code)
        for name in others:
            fs.write_file(f"{layout.learner_dir(0)}/{name}", "1")

        def one_pass(freshness):
            report = _learner_report(fs, 0)
            if report is None:
                return None
            return _apply_stall_detection(report, 0, freshness, clock[0],
                                          stall_timeout=90.0)[0]

        freshness = {}
        first = one_pass(freshness)
        clock[0] += later  # the reader's clock moves; the files do not
        assert one_pass(freshness) == first
        if first is not None:
            assert first["time"] == (status[2] if status is not None
                                     else 100.0)
