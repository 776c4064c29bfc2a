#!/usr/bin/env bash
# Repo gate: lint (when ruff is available), the tier-1 test suite, the
# benchmark's own tests and quick run (outside tier 1: testpaths is
# tests/), and the bench smoke tests. Every stage prints its own wall
# seconds; the last line, pass or fail, repeats them all.
#
# Usage: scripts/check.sh [extra pytest args...]
set -euo pipefail

cd "$(dirname "$0")/.."

summary=""
trap 'echo "== check exit=$? after ${SECONDS}s:$summary =="' EXIT

stage() {  # stage <name> <command...>
    local name=$1 start=$SECONDS
    shift
    echo "== $name =="
    "$@"
    summary+=" $name=$((SECONDS - start))s"
    echo "-- $name: $((SECONDS - start))s"
}

if command -v ruff >/dev/null 2>&1; then
    stage ruff ruff check src tests benchmarks
else
    echo "== ruff not installed; skipping lint (pip install ruff to enable) =="
fi
stage metric-name-lint python scripts/lint_metric_names.py
stage event-reason-lint python scripts/lint_event_reasons.py
stage deepcopy-lint python scripts/lint_deepcopy.py
stage shared-state-lint python scripts/lint_shared_state.py
stage tier-1 env PYTHONPATH=src python -m pytest -q "$@"
stage perfbench-tests python -m pytest perfbench/tests -q
stage perfbench-quick python3 perfbench/run.py --quick
# Serving, gray-failure and consistency gates: simulated-clock and
# exact assertions, so every one runs and reports even if another fails.
stage bench-smoke env PYTHONPATH=src python -m pytest benchmarks -q -k smoke \
    --durations=0
