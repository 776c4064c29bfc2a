#!/usr/bin/env bash
# Repo gate: lint (when ruff is available), the tier-1 test suite, the
# benchmark's own tests and quick run (outside tier 1: testpaths is
# tests/), and the bench smoke gates.
#
# Usage: scripts/check.sh [extra pytest args...]
set -euo pipefail

cd "$(dirname "$0")/.."

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff =="
    ruff check src tests benchmarks
else
    echo "== ruff not installed; skipping lint (pip install ruff to enable) =="
fi

echo "== metric-name lint =="
python scripts/lint_metric_names.py

echo "== event-reason lint =="
python scripts/lint_event_reasons.py

echo "== deepcopy lint =="
python scripts/lint_deepcopy.py

echo "== shared-state lint =="
python scripts/lint_shared_state.py

echo "== pytest (tier 1) =="
PYTHONPATH=src python -m pytest -q "$@"

echo "== perfbench tests =="
python -m pytest perfbench/tests -q

echo "== perfbench quick run =="
python3 perfbench/run.py --quick

echo "== perf smoke gate =="
PYTHONPATH=src python benchmarks/bench_perf.py --check

echo "== scale smoke gate =="
PYTHONPATH=src python benchmarks/bench_scalability.py --check

echo "== serving smoke gate =="
PYTHONPATH=src python benchmarks/bench_serving.py --check

echo "== gray-failure smoke gate =="
PYTHONPATH=src python benchmarks/bench_gray_failures.py --check

echo "== consistency smoke gate =="
PYTHONPATH=src python benchmarks/bench_consistency.py --check
