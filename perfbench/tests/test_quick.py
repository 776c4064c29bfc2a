"""The 6-job pass: every workload, both clocks, every metric name."""

import time

from perfbench.cli import measure_workload
from perfbench.spec import benchmark_json
from perfbench.workloads import WORKLOADS


def test_quick_pass_emits_every_metric_on_every_workload():
    spec = benchmark_json()
    names = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    started = time.perf_counter()
    for workload in WORKLOADS.values():
        metrics, detail = measure_workload(workload.quick(), 2, 0.0, True)
        assert set(metrics) == names, workload.name
        assert all(isinstance(v, (int, float)) for v in metrics.values())
        assert detail["problems"] == [], workload.name
        assert detail["failed"] == 0, workload.name
        assert metrics["trace.overhead_ratio"] > 0
    assert time.perf_counter() - started < 20
    # chaos ran last: it injected, everything came back, the audit ran
    assert metrics["core.recovery.api_max_s"] > 0
    assert metrics["core.recovery.lcm_max_s"] > 0
    assert metrics["audit.ops_checked"] > 0
    assert metrics["audit.violations"] == 0
    assert metrics["driver.late_max_sim_s"] == 0
