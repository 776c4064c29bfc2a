WORKLOAD ?= steady
PAIRS ?= 10

.PHONY: check test lint bench perf pairs perf-gray perf-audit audit profile

check:
	scripts/check.sh

test:
	PYTHONPATH=src python -m pytest -q

lint:
	ruff check src tests benchmarks

bench:
	PYTHONPATH=src python -m pytest -q benchmarks/bench_fig4_recovery.py benchmarks/bench_detection_latency.py

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
