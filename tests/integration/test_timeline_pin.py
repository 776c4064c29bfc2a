"""The simulated timeline is pinned: committed digest + replay identity.

The smoke digest committed in ``BENCH_perf.json`` is the equivalence
oracle for every scheduling-visible mechanism (cancellable timers with
lazy heap deletion, the docstore query planner, copy-elided reads): a
change that moves a single trace record, status timestamp or the final
clock changes the digest and fails here before it reaches a bench.

The chaos scenario matters most for replay identity: crashes drive
deadline-RPC races (AnyOf timeout losers), Guardian recovery (the
paper's Fig. 4 bands), and fail-over retries — exactly the machinery
timer cancellation touches.
"""

import json
from pathlib import Path

import pytest

from repro.bench import run_scale_scenario
from repro.core import ComponentCrasher

from .conftest import make_platform, manifest

BENCH_PERF = Path(__file__).resolve().parents[2] / "BENCH_perf.json"


def full_timeline(platform, docs):
    trace = [(round(r.time, 9), r.component, r.kind)
             for r in platform.tracer.records]
    histories = [
        [(h["status"], round(h["time"], 9)) for h in doc["status_history"]]
        for doc in docs
    ]
    return trace, histories, round(platform.kernel.now, 9)


def run_chaos(seed=29):
    """One checkpointing job through a learner crash and a Guardian
    crash — the Fig. 4 recovery bands."""
    platform = make_platform(seed=seed)
    client = platform.client("team")

    def submit():
        job_id = yield from client.submit(
            manifest(target_steps=240, checkpoint_interval=15.0))
        yield from client.wait_for_status(job_id, statuses={"PROCESSING"},
                                          timeout=2000)
        return job_id

    job_id = platform.run_process(submit(), limit=10_000)
    crasher = ComponentCrasher(platform)
    crasher.crash_learner(job_id)
    platform.run_for(30.0)
    crasher.crash_guardian(job_id)

    def finish():
        return (yield from client.wait_for_status(job_id, timeout=50_000))

    doc = platform.run_process(finish(), limit=200_000)
    platform.run_for(20.0)
    return full_timeline(platform, [doc]), platform


@pytest.fixture(scope="module")
def chaos_runs():
    return run_chaos(), run_chaos()


class TestTimelinePin:
    def test_smoke_digest_matches_committed(self):
        """One partition, one tenant is event-for-event the perf smoke
        scenario (``benchmarks/bench_perf.py`` SMOKE)."""
        smoke = json.loads(BENCH_PERF.read_text())["smoke"]
        row = run_scale_scenario(partitions=1, **smoke["scenario"])
        assert row["completed"] == row["jobs"]
        assert row["digest"] == smoke["digest"]

    def test_chaos_recovery_replays_identically(self, chaos_runs):
        (first, platform), (second, _) = chaos_runs
        assert first == second
        assert platform.kernel.timers_cancelled > 0


class TestDeadEntryBounds:
    def test_dead_entries_bounded_under_chaos(self, chaos_runs):
        """Lazy deletion must not let cancelled timers pile up: every
        cancelled timer is eventually popped (and counted) or still
        pending, and the pending backlog stays small relative to the
        work done."""
        _timeline, platform = chaos_runs[0]
        kernel = platform.kernel
        assert kernel.timers_cancelled > 0
        # Conservation: cancelled timers are either already skipped at
        # pop or still waiting in the heap.
        assert (kernel.dead_entries_skipped + kernel.dead_entries_pending
                == kernel.timers_cancelled)
        # The heap backlog of dead entries stays bounded — a small
        # fraction of total events, not an ever-growing tail.
        assert kernel.dead_entries_pending < 0.05 * kernel.events_processed
        assert kernel.dead_entry_ratio < 0.5
