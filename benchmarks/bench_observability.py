"""Observability overhead: the cost of causal tracing and metrics.

Runs the same job through the full platform with span tracing on and
off and compares (a) wall-clock runtime — the instrumentation's real
cost — and (b) the *simulated* timeline, which must be bit-identical:
spans and metrics observe the simulation, they must never perturb it.
The paper's platform makes the same promise (§IV: monitoring overhead
within the noise of the training measurements).
"""

import time

from repro.bench import bench_manifest, build_platform, render_table
from repro.core import PlatformConfig

COLUMNS = ["mode", "wall s", "sim completion s", "spans", "exposition lines"]

STEPS = 60
ROUNDS = 3


def _run_once(span_tracing):
    config = PlatformConfig(gpu_nodes=2, gpus_per_node=4, gpu_type="k80",
                            management_nodes=2, span_tracing=span_tracing)
    from repro.core import DlaasPlatform

    platform = DlaasPlatform(seed=0, config=config).start()
    creds = {"access_key": "bench", "secret": "bench"}
    platform.seed_training_data("bench-data", creds, size_mb=200)
    platform.ensure_results_bucket("bench-results", creds)
    manifest = bench_manifest("vgg16", "tensorflow", gpus=1, gpu_type="k80",
                              steps=STEPS)
    client = platform.client("bench")
    started = time.perf_counter()
    job_id, doc = platform.run_process(
        client.run_to_completion(manifest, timeout=100_000), limit=500_000
    )
    wall = time.perf_counter() - started
    assert doc["status"] == "COMPLETED", doc
    exit_rec = platform.tracer.last(component="learner-0", kind="learner-exit",
                                    job=job_id)
    return {
        "wall": wall,
        "sim_completion": exit_rec.time,
        "spans": len(platform.tracer.spans),
        "exposition_lines": len(platform.metrics.expose().splitlines()),
    }


def observability_rows():
    rows = []
    for mode, span_tracing in (("spans off", False), ("spans on", True)):
        runs = [_run_once(span_tracing) for _ in range(ROUNDS)]
        best = min(run["wall"] for run in runs)
        rows.append({
            "mode": mode,
            "wall s": round(best, 3),
            "sim completion s": round(runs[0]["sim_completion"], 3),
            "spans": runs[0]["spans"],
            "exposition lines": runs[0]["exposition_lines"],
        })
    return rows


def test_observability_overhead(record_table):
    rows = observability_rows()
    off, on = rows
    overhead = (on["wall s"] - off["wall s"]) / off["wall s"] * 100.0
    for row in rows:
        row["overhead %"] = round(overhead, 2) if row["mode"] == "spans on" else 0.0
    table = render_table(
        "Observability overhead: span tracing on vs off",
        COLUMNS + ["overhead %"], rows,
    )
    record_table("observability_overhead", table)

    # Shape: tracing observes the simulation without perturbing it —
    # the simulated timeline is identical with spans on or off.
    assert on["sim completion s"] == off["sim completion s"], rows
    # Shape: spans off really disables collection; on collects the tree.
    assert off["spans"] == 0 and on["spans"] > 5, rows
    # Metrics stay on in both modes (they are load-bearing elsewhere).
    assert off["exposition lines"] > 50 and on["exposition lines"] > 50, rows
    # The wall column is recorded, not judged: what span tracing costs
    # the host is perfbench's ``trace.overhead_ratio``.
