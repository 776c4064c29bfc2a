WORKLOAD ?= steady
PAIRS ?= 10

.PHONY: check test lint bench perf pairs perf-gray perf-audit audit profile reach

check:
	scripts/check.sh

test:
	PYTHONPATH=src python -m pytest -q

lint:
	ruff check src tests benchmarks

# The paper-facing benches: each regenerates its bench_results/ table
# and asserts the paper's claim on the simulated clock.
PAPER_BENCHES = bench_fig2_overhead bench_fig3_dgx1 bench_fig4_recovery \
	bench_guardian_creation bench_detection_latency bench_atomic_deploy \
	bench_etcd_vs_direct bench_chaos_soak bench_scheduler bench_job_mix \
	bench_gang_scheduling bench_consistency bench_gray_failures \
	bench_checkpoint_tradeoff bench_scalability

bench:
	PYTHONPATH=src python -m pytest -q $(PAPER_BENCHES:%=benchmarks/%.py)

perf:
	python3 perfbench/run.py

# Host-clock claim: alternating pairs against a checkout of the parent
# commit. PARENT and SEED are required; pick a seed not used while
# writing the change, e.g.
#   make pairs PARENT=/root/scratch/parent WORKLOAD=scale SEED=<unused> PAIRS=5
pairs:
	python3 scripts/pairs.py --parent $(PARENT) --change . --workload $(WORKLOAD) --seed $(SEED) --pairs $(PAIRS)

perf-gray:
	PYTHONPATH=src python benchmarks/bench_gray_failures.py

perf-audit:
	PYTHONPATH=src python benchmarks/bench_consistency.py

audit:
	PYTHONPATH=src python scripts/audit_report.py

profile:
	PYTHONPATH=src python scripts/profile.py

# Rewrite reach.txt: the src/repro functions no non-test entry point
# enters (tests/core/test_reach.py holds its total).
reach:
	python scripts/reach.py
