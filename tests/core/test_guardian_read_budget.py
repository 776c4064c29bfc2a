"""Read-budget ratchet: what one Guardian status pass costs, counted.

A pass that finds nothing changed is almost every pass (1 Hz per live
job, DESIGN.md "A status pass is one snapshot"). It used to be four
leader reads and a Mongo ``find_one``; it is one range read of the
job's etcd prefix and nothing else, and a job whose learners report
nothing new gets one such pass per ``MONITOR_INTERVAL``, no more
(DESIGN.md "A quiet job is quiet"). The counts below are exact, in the
manner of ``tests/grpcnet/test_rpc_budget.py``; beside them are the two
things that make the saving safe: the snapshot aggregates to what the
four reads did, and only a status Mongo itself confirmed is skipped.
"""

from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ComponentCrasher, layout
from repro.core.guardian import MONITOR_INTERVAL, Guardian
from repro.core.helpers import HELPER_DONE

from ..integration.conftest import (
    make_platform,
    manifest,
    submit_and_wait_running,
    wait_terminal,
)


def guardian_rpcs(rpcs, job_id):
    """``(etcd calls, mongo calls)`` of the job's Guardian, as method /
    op names; its etcd client id carries the pod uid, its Mongo client
    id does not."""
    etcd = [method for caller, _address, method, _request in rpcs
            if caller.startswith(f"guardian-{job_id}-")]
    mongo = [request["op"] for caller, _address, _method, request in rpcs
             if caller == f"guardian-{job_id}"]
    return etcd, mongo


class TestQuiescentPass:
    def test_one_etcd_rpc_and_no_mongo_rpc_per_pass(self, monkeypatch,
                                                       rpcs):
        passes = []
        plain_pass = Guardian._reconcile_status

        def counted_pass(self, done):
            passes.append(self.kernel.now)
            return plain_pass(self, done)

        monkeypatch.setattr(Guardian, "_reconcile_status", counted_pass)
        # A learner that hangs with detection off: PROCESSING for good,
        # and quiescent in etcd (the controller publishes a report only
        # when it changes), so the passes left are the 1 Hz resync's.
        platform = make_platform(stall_timeout=0.0)
        job_id = submit_and_wait_running(
            platform, platform.client("team"),
            manifest(target_steps=200, extra={"hang_at_step": 20}))
        platform.run_for(60.0)
        del rpcs[:], passes[:]
        seconds = 20.0
        platform.run_for(seconds)

        etcd, mongo = guardian_rpcs(rpcs, job_id)
        assert 1 <= len(passes) <= seconds / MONITOR_INTERVAL
        assert etcd == ["range"] * len(passes)
        assert mongo == []
        # Nothing woke them: the controller wrote nothing in that time.
        assert [method for caller, _address, method, _request in rpcs
                if caller.startswith(f"controller-{job_id}-")] == []


class SnapshotGuardian(Guardian):
    """``_reconcile_status`` over a given key set, with what it derives
    captured instead of acted on."""

    def __init__(self, kvs):
        self.job_id = "job-1"
        self.etcd = self
        self.kvs = kvs
        self._last_reports = []
        self.captured = {}

    def get_range(self, prefix, also=()):
        self.captured["read"] = (prefix, also)
        return sorted(kv for kv in self.kvs.items()
                      if kv[0].startswith(prefix))
        yield  # a process generator, like the client's

    def _restart_stalled_learners(self, statuses):
        self.captured["statuses"] = statuses

    def _set_status(self, status):
        self.captured["status"] = status
        return
        yield


def four_reads(guardian, kvs):
    """The aggregation as the monitor made it before: three point reads
    and a range over the learners."""
    job_id = guardian.job_id
    halted = kvs.get(layout.halt_key(job_id))
    prefix = layout.learner_status_prefix(job_id)
    statuses = sorted(kv for kv in kvs.items() if kv[0].startswith(prefix))
    store_done = kvs.get(
        layout.helper_status_key(job_id, "store-results")) == HELPER_DONE
    load_done = kvs.get(
        layout.helper_status_key(job_id, "load-data")) == HELPER_DONE
    status = guardian._aggregate([value for _key, value in statuses],
                                 load_done, store_done)
    return statuses, "HALTED" if halted else status


LEARNER_STATUSES = ("DOWNLOADING", "PROCESSING", "STALLED", "COMPLETED",
                    "FAILED", "HALTED")
HELPER_STATES = st.sampled_from([None, "RUNNING", HELPER_DONE, "FAILED"])


@st.composite
def key_sets(draw):
    job_id = "job-1"
    kvs = {}
    if draw(st.booleans()):
        kvs[layout.halt_key(job_id)] = True
    for ordinal in range(draw(st.integers(0, 4))):
        report = {"status": draw(st.sampled_from(LEARNER_STATUSES)),
                  "step": draw(st.integers(0, 100))}
        kvs[layout.learner_status_key(job_id, ordinal)] = report
    for helper in ("store-results", "load-data", "controller"):
        state = draw(HELPER_STATES)
        if state is not None:
            kvs[layout.helper_status_key(job_id, helper)] = state
    # A neighbour whose id extends ours shares no prefix with us.
    if draw(st.booleans()):
        kvs[layout.halt_key(job_id + "0")] = True
        kvs[layout.learner_status_key(job_id + "0", 0)] = {"status": "FAILED"}
    return kvs


class TestSnapshotAggregation:
    @settings(max_examples=300, deadline=None)
    @given(kvs=key_sets())
    def test_equals_the_four_read_aggregation(self, kvs):
        guardian = SnapshotGuardian(kvs)
        done = SimpleNamespace(triggered=False,
                               succeed=lambda status: None)
        for _ in guardian._reconcile_status(done):
            pytest.fail("a pass over an in-memory key set never suspends")

        statuses, status = four_reads(guardian, kvs)
        assert guardian.captured["statuses"] == statuses
        assert guardian.captured["status"] == status
        prefix, also = guardian.captured["read"]
        assert prefix == layout.job_prefix("job-1")
        # The three keys whose absence the pass acts on are named, so
        # that the audit records them as read-absent.
        assert set(also) == {
            layout.halt_key("job-1"),
            layout.helper_status_key("job-1", "store-results"),
            layout.helper_status_key("job-1", "load-data")}

    def test_no_point_read_is_left_in_the_pass(self):
        import inspect
        source = inspect.getsource(Guardian._reconcile_status)
        assert "etcd.get(" not in source
        assert source.count("etcd.get_range(") == 1


def status_ops(rpcs, job_id):
    """The Guardian's Mongo traffic that reads or moves the status:
    ``"read"`` for ``_set_status``'s ``find_one``, the new status for
    an ``update_one`` that sets one."""
    out = []
    for caller, _address, _method, request in rpcs:
        if caller != f"guardian-{job_id}":
            continue
        if request["op"] == "find_one" \
                and request.get("projection") == ["status"]:
            out.append("read")
        elif request["op"] == "update_one" \
                and "status" in request["update"].get("$set", {}):
            out.append(request["update"]["$set"]["status"])
    return out


class TestConfirmedStatus:
    def test_a_new_incarnation_starts_with_nothing_confirmed(self, rpcs):
        platform = make_platform()
        client = platform.client("team")
        job_id = submit_and_wait_running(platform, client,
                                         manifest(target_steps=200))
        ComponentCrasher(platform).crash_guardian(job_id)
        del rpcs[:]
        doc = wait_terminal(platform, client, job_id)
        assert doc["status"] == "COMPLETED"
        ops = status_ops(rpcs, job_id)
        # The successor asks Mongo where the job stands before it moves
        # it, and every move is a read followed by the guarded update.
        assert ops[0] == "read"
        assert "STORING" in ops and "COMPLETED" in ops
        for index, op in enumerate(ops):
            if op != "read":
                assert ops[index - 1] == "read"

    def test_a_confirmed_status_is_not_asked_for_again(self, rpcs):
        platform = make_platform()
        client = platform.client("team")
        job_id = submit_and_wait_running(platform, client,
                                         manifest(target_steps=400))
        platform.run_for(3.0)
        del rpcs[:]
        platform.run_for(10.0)  # learner steps keep arriving
        etcd, mongo = guardian_rpcs(rpcs, job_id)
        assert len(etcd) >= 10
        assert mongo == []


def incarnation(platform, job_id, uid):
    pod = SimpleNamespace(metadata=SimpleNamespace(uid=uid))
    ctx = SimpleNamespace(kernel=platform.kernel, pod=pod,
                          log=lambda line: None,
                          stop_event=platform.kernel.event())
    return Guardian(platform, job_id, ctx)


class TestLostCas:
    def test_two_incarnations_racing_one_transition(self):
        """The old pod is still monitoring when its replacement starts:
        both read PROCESSING and both try PROCESSING -> STORING. One
        update matches; the other must neither claim the transition in
        the trace nor remember a status it did not write."""
        platform = make_platform(stall_timeout=0.0)
        job_id = submit_and_wait_running(
            platform, platform.client("team"),
            manifest(target_steps=200, extra={"hang_at_step": 20}))
        first = incarnation(platform, job_id, "uid-a")
        second = incarnation(platform, job_id, "uid-b")
        racers = [platform.kernel.spawn(g._set_status("STORING"))
                  for g in (first, second)]
        platform.run_for(2.0)
        assert all(racer.triggered for racer in racers)

        def read():
            return (yield from first.mongo.find_one("jobs",
                                                    {"job_id": job_id}))

        doc = platform.run_process(read(), limit=60)
        history = Counter(h["status"] for h in doc["status_history"])
        assert doc["status"] == "STORING" and history["STORING"] == 1
        claims = [r for r in platform.tracer.query(component="guardian",
                                                   kind="status-update",
                                                   job=job_id)
                  if r.fields["status"] == "STORING"]
        assert len(claims) == 1
        assert {first._confirmed, second._confirmed} == {"STORING", None}
        # The loser re-reads on its next pass and then agrees.
        loser = first if first._confirmed is None else second
        platform.run_process(loser._set_status("STORING"), limit=60)
        assert loser._confirmed == "STORING"
