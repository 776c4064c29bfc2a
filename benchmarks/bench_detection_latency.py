"""Failure/completion detection latency through the status pipeline.

§II requires "periodic and accurate status updates"; §III.e-f build the
pipeline learner-files -> controller -> ETCD -> Guardian -> MongoDB.
This bench measures its end-to-end latency: from the learner writing
its exit code on NFS to the user-visible job status flipping in
MongoDB, for both orderly completion and orderly failure.

Since the control plane went event-driven the pipeline is wake-on-write
end to end: NFS change notification -> controller reconcile -> Raft
commit (~10ms) -> etcd watch -> Guardian aggregation -> Mongo write.
The historical poll-budget bound (< 3s) is kept as the paper's band;
actual latency is dominated by the Raft/Mongo commits (~tens of ms), and
the regression gate is the measured maximum, pinned to about 10 ms.
"""

from repro.bench import bench_manifest, build_platform, render_table
from repro.core import layout

COLUMNS = ["terminal event", "runs", "min s", "mean s", "max s", "budget"]
# The measured worst case at the committed seeds (6-9), pinned to
# PIN_TOLERANCE_S beside the paper's budget: the budget alone would pass
# a regression of seconds, the pin fails on one of tens of ms. A change
# that moves the status pipeline on purpose re-pins these.
MEASURED_MAX_S = {"COMPLETED": 0.0175, "FAILED": 0.0176}
PIN_TOLERANCE_S = 0.01


def measure(kind, runs=4, seed=6):
    samples = []
    for index in range(runs):
        platform = build_platform("k80", gpus_per_node=4, seed=seed + index)
        client = platform.client("detect")
        manifest = bench_manifest("resnet50", "tensorflow", 1, "k80", steps=40)

        def scenario():
            job_id = yield from client.submit(manifest)
            if kind == "FAILED":
                # User code that exits 1 at step 20.
                platform.faults.arm(layout.learner_pod_name(job_id, 0),
                                    "fail", 20)
            yield from client.wait_for_status(job_id, timeout=50_000)
            return job_id

        job_id = platform.run_process(scenario(), limit=200_000)
        exit_record = platform.tracer.first(component="learner-0",
                                            kind="learner-exit", job=job_id)
        assert exit_record.fields["exit_code"] == (1 if kind == "FAILED" else 0)
        status_flip = next(
            r for r in platform.tracer.query(component="guardian",
                                             kind="status-update")
            if r.fields["job"] == job_id
            and r.fields["status"] in ("FAILED", "STORING")
        )
        samples.append(status_flip.time - exit_record.time)
    return {
        "terminal event": kind,
        "runs": runs,
        "min s": min(samples),
        "mean s": sum(samples) / len(samples),
        "max s": max(samples),
        "budget": "< 3s",
    }


def test_detection_latency(benchmark, record_table):
    def run_both():
        return [measure("COMPLETED"), measure("FAILED")]

    rows = benchmark.pedantic(run_both, rounds=1, iterations=1)
    table = render_table(
        "Status-pipeline detection latency (learner exit -> MongoDB status)",
        COLUMNS, rows,
    )
    record_table("detection_latency", table)

    for row in rows:
        assert 0.0 < row["min s"]
        assert row["max s"] < 3.0
        pinned = MEASURED_MAX_S[row["terminal event"]]
        assert abs(row["max s"] - pinned) <= PIN_TOLERANCE_S, (
            row["terminal event"], row["max s"], pinned)
