"""Collate archived benchmark tables into a single REPORT.md.

Usage::

    pytest benchmarks/ --benchmark-only   # populates bench_results/
    python -m repro.bench.report          # writes REPORT.md
"""

import pathlib

# Presentation order: paper figures first, claims, then extensions.
_SECTIONS = (
    ("Paper figures", ("fig2_overhead", "fig3_dgx1", "fig4_recovery")),
    ("Paper claims", ("guardian_creation", "detection_latency", "scalability")),
    ("Ablations", ("checkpoint_tradeoff", "atomic_deploy", "atomic_deploy_e2e",
                   "etcd_vs_direct", "scheduler")),
    ("Extensions", ("gang_scheduling", "chaos_soak", "job_mix")),
)


def build_report(results_dir, out_path):
    results_dir = pathlib.Path(results_dir)
    lines = [
        "# Benchmark report",
        "",
        "Generated from `bench_results/` — regenerate with "
        "`pytest benchmarks/ --benchmark-only` then "
        "`python -m repro.bench.report`.",
        "",
    ]
    seen = set()
    for section, names in _SECTIONS:
        tables = []
        for name in names:
            path = results_dir / f"{name}.txt"
            if path.exists():
                tables.append(path.read_text().rstrip())
                seen.add(path.name)
        if not tables:
            continue
        lines.append(f"## {section}")
        lines.append("")
        for table in tables:
            lines.append("```")
            lines.append(table)
            lines.append("```")
            lines.append("")
    # Anything archived but not in the ordering still gets included.
    extras = sorted(
        p for p in results_dir.glob("*.txt") if p.name not in seen
    )
    if extras:
        lines.append("## Other results")
        lines.append("")
        for path in extras:
            lines.append("```")
            lines.append(path.read_text().rstrip())
            lines.append("```")
            lines.append("")
    out_path = pathlib.Path(out_path)
    out_path.write_text("\n".join(lines))
    return out_path


def main():
    root = pathlib.Path(__file__).resolve().parents[3]
    results = root / "bench_results"
    if not results.exists():
        raise SystemExit("bench_results/ not found; run the benchmarks first")
    out = build_report(results, root / "REPORT.md")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
