"""The simulated timeline is pinned: committed digest + replay identity.

The smoke digests committed in ``BENCH_perf.json`` are the equivalence
oracle for every scheduling-visible mechanism (cancellable timers with
lazy heap deletion, the docstore query planner, copy-elided reads): a
change that moves a single trace record, status timestamp or the final
clock changes the digest and fails here. This is the only place the
smoke scenario is driven and compared; host cost is perfbench's job.

The chaos scenario matters most for replay identity: crashes drive
deadline-RPC races (AnyOf timeout losers), Guardian recovery (the
paper's Fig. 4 bands), and fail-over retries — exactly the machinery
timer cancellation touches.
"""

import gc
import json
from pathlib import Path

import pytest

from repro.bench import run_scale_scenario
from repro.core import ComponentCrasher
from repro.sim import Process

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
    @pytest.mark.parametrize("digest_key, partitions, overrides", [
        # One partition is the stock platform: a subsystem that is on
        # by default (the gray detector) or off by default (serving,
        # sharding) and leaks into the timeline moves this digest.
        pytest.param("digest", 1, {}, id="default"),
        # Recording is direct appends (no RPCs, RNG or sleeps), so the
        # flight recorder must not move the default timeline.
        pytest.param("digest", 1, {"history_recording": True},
                     id="recording-on"),
        # The partitioned control plane: ring routing, 2 LCMs on 4
        # slice leases, 2 docstore shards.
        pytest.param("digest_partitions_2", 2, {}, id="partitions-2"),
    ])
    def test_smoke_digest_matches_committed(self, digest_key, partitions,
                                            overrides):
        smoke = json.loads(BENCH_PERF.read_text())["smoke"]
        row = run_scale_scenario(partitions=partitions, **smoke["scenario"],
                                 **overrides)
        assert row["digest"] == smoke[digest_key], (
            "the simulated timeline moved; after a deliberate "
            "scheduling-visible change, re-pin BENCH_perf.json "
            f"smoke.{digest_key} to {row['digest']}")
        assert row["completed"] == row["jobs"]
        assert row["gpus_leaked"] == 0
        # §III.d: Guardian creation stays under 3 s with six jobs in
        # flight at once.
        assert row["guardian_max_s"] < 3.0

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


class TestHeapFollowsTheSimulation:
    def test_finished_processes_die_with_their_rpcs(self):
        """Every RPC is two processes (caller side, server side). The
        kernel keeps no registry of them, so after six jobs the heap
        holds the few finished processes some component still points
        at (image pulls, the last pod of a kubelet) — not two per RPC."""
        platform = make_platform(seed=2, gpu_nodes=4)
        client = platform.client("perf")

        def drive():
            job_ids = []
            for i in range(6):
                job_ids.append((yield from client.submit(manifest(
                    name=f"perf-{i}", gpus_per_learner=2, target_steps=30))))
            for job_id in job_ids:
                yield from client.wait_for_status(job_id, timeout=100_000)

        platform.run_process(drive(), limit=500_000)
        platform.run_for(30.0)
        gc.collect()
        finished = [obj for obj in gc.get_objects()
                    if isinstance(obj, Process) and obj.triggered
                    and obj._kernel is platform.kernel]
        calls = platform.metrics.get("rpc_client_calls_total")
        rpcs = sum(child.value for _labels, child in calls.children())
        assert rpcs > 5_000
        assert len(finished) < 100, len(finished)
