"""Unit tests for the benchmark harness itself."""

from pathlib import Path

import pytest

from repro.bench import ablations
from repro.bench import (
    atomic_deploy_rows,
    build_config,
    dgx1_config,
    etcd_vs_direct_rows,
    measure_bare_metal,
    measure_dgx1,
    render_table,
    scheduler_rows,
)


class TestReporting:
    def test_render_table_aligns_columns(self):
        text = render_table("T", ["a", "long-column"], [
            {"a": 1, "long-column": 2.5},
            {"a": "xyz", "long-column": None},
        ])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "long-column" in lines[2]
        assert "2.50" in text
        assert "-" in lines[-1]  # None renders as '-'

    def test_render_empty_table(self):
        text = render_table("Empty", ["col"], [])
        assert "col" in text


class TestBaselineRunners:
    def test_bare_metal_throughput_deterministic(self):
        config = build_config("resnet50", "tensorflow", "k80", 1)
        first = measure_bare_metal(config, steps=50)
        second = measure_bare_metal(config, steps=50)
        assert first == second

    def test_dgx_beats_pcie(self):
        pcie = build_config("vgg16", "tensorflow", "p100-pcie", 2)
        dgx = dgx1_config("vgg16", "tensorflow", 2)
        assert measure_dgx1(dgx, steps=50) > measure_bare_metal(pcie, steps=50)

    def test_throughput_independent_of_step_count(self):
        # Steady-state measurement: 50 vs 200 steps agree closely.
        config = build_config("inceptionv3", "tensorflow", "k80", 1)
        short = measure_bare_metal(config, steps=50)
        long = measure_bare_metal(config, steps=200)
        assert abs(short - long) / long < 0.01


class TestAblationFunctions:
    def test_atomic_deploy_rows_match_analytic(self, monkeypatch):
        monkeypatch.setattr(ablations, "ATTEMPT_BUDGETS", (1, 2, 4))
        rows = atomic_deploy_rows(crash_probability=0.5, trials=400)
        for row in rows:
            assert abs(row["success rate"] - row["analytic"]) < 0.1
        rates = [row["success rate"] for row in rows]
        assert rates == sorted(rates)  # more attempts, more success

    def test_etcd_vs_direct_shape(self):
        rows = etcd_vs_direct_rows(updates=20, downtime=(10.0, 20.0))
        etcd_row, push_row = rows
        assert etcd_row["lost"] == 0
        assert 0 < push_row["lost"] < 20

    def test_scheduler_rows_shape(self):
        rows = scheduler_rows(nodes=4, gpus_per_node=4)
        binpack = next(r for r in rows if r["strategy"] == "binpack")
        spread = next(r for r in rows if r["strategy"] == "spread")
        assert binpack["4-GPU pods placed"] > spread["4-GPU pods placed"]


class TestReportBuilder:
    def test_collates_archived_tables(self, tmp_path):
        from repro.bench.report import build_report

        results = tmp_path / "bench_results"
        results.mkdir()
        (results / "fig2_overhead.txt").write_text("Fig2 table\nrow")
        (results / "custom_extra.txt").write_text("Extra table")
        out = build_report(results, tmp_path / "REPORT.md")
        text = out.read_text()
        assert "## Paper figures" in text
        assert "Fig2 table" in text
        assert "## Other results" in text
        assert "Extra table" in text

    def test_committed_report_is_rendered_from_committed_tables(self, tmp_path):
        from repro.bench.report import build_report

        root = Path(__file__).resolve().parents[2]
        out = build_report(root / "bench_results", tmp_path / "REPORT.md")
        assert out.read_text() == (root / "REPORT.md").read_text(), (
            "REPORT.md is stale: regenerate it with "
            "`PYTHONPATH=src python -m repro.bench.report`")
