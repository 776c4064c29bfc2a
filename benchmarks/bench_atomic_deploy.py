"""Ablation (§III.d) — atomic deployment: retry+rollback vs give up.

Quantifies what the Guardian's K8S-Job-backed retry loop buys: with a
per-attempt crash probability p, a single-attempt deployer succeeds with
probability 1-p while the K8S-Job pattern with k attempts reaches
1-p^k. Also runs a live end-to-end check that a mid-deployment crash
still converges to a COMPLETED job on the real (simulated) platform.
"""

from repro.bench import atomic_deploy_rows, bench_manifest, build_platform, render_table
from repro.core import ComponentCrasher

COLUMNS = ["attempt budget", "crash prob", "deployed jobs", "trials",
           "success rate", "analytic"]


def test_atomic_deploy_success_rates(benchmark, record_table):
    rows = benchmark.pedantic(
        atomic_deploy_rows,
        kwargs={"crash_probability": 0.35, "trials": 200},
        rounds=1, iterations=1,
    )
    table = render_table(
        "§III.d ablation: deployment success vs Guardian attempt budget",
        COLUMNS, rows,
    )
    record_table("atomic_deploy", table)

    single, retried = rows
    assert retried["success rate"] > single["success rate"]
    # Monte Carlo within a few points of the analytic law.
    for row in rows:
        assert abs(row["success rate"] - row["analytic"]) < 0.12


def test_atomic_deploy_end_to_end(benchmark, record_table):
    def run():
        platform = build_platform("k80", gpus_per_node=4)
        client = platform.client("atomic")
        manifest = bench_manifest("resnet50", "tensorflow", 1, "k80", steps=40)

        def scenario():
            job_id = yield from client.submit(manifest)
            # kubectl kills the Guardian once attempt 1 has deployed
            # step 2 (the network policy).
            ComponentCrasher(platform).crash_guardian_at(job_id, 2, 1)
            doc = yield from client.wait_for_status(job_id, timeout=50_000)
            deploys = platform.tracer.query(component="guardian",
                                            kind="deployed", job=job_id)
            return job_id, doc, [d.fields["attempt"] for d in deploys]

        return platform.run_process(scenario(), limit=200_000)

    job_id, doc, attempts = benchmark.pedantic(run, rounds=1, iterations=1)
    record_table(
        "atomic_deploy_e2e",
        f"mid-deployment Guardian crash on attempt 1 -> job {job_id} "
        f"ended {doc['status']} after rollback + redeploy",
    )
    assert doc["status"] == "COMPLETED"
    assert attempts == [2]  # the crash fired and the redeploy took
