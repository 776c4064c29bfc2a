#!/usr/bin/env bash
# Repo gate: lint (when ruff is available), the tier-1 test suite, the
# benchmark's own tests and quick run (outside tier 1: testpaths is
# tests/), the bench smoke tests and the paper-facing benches. Every
# stage prints its own wall seconds; the last line, pass or fail,
# repeats them all.
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
stage metric-write-lint python scripts/lint_metric_writes.py
stage tier-1 env PYTHONPATH=src python -m pytest -q "$@"
stage perfbench-tests python -m pytest perfbench/tests -q
stage perfbench-quick python3 perfbench/run.py --quick
# Gray-failure and consistency gates: simulated-clock and exact
# assertions, so each runs and reports even if the other fails.
stage bench-smoke env PYTHONPATH=src python -m pytest benchmarks -q -k smoke \
    --durations=0
# The paper's figures and claims (`make bench` holds the list); their
# tables are deterministic, so a run must leave bench_results/ as it
# found it. Hashes, not `git diff`, so an uncommitted tree is checked too.
bench_tables() { sha256sum bench_results/*.txt; }
paper() {
    local before after
    before=$(bench_tables)
    make --no-print-directory bench
    after=$(bench_tables)
    if [[ "$after" != "$before" ]]; then
        echo "make bench changed bench_results/ (a paper number moved):"
        diff <(echo "$before") <(echo "$after") || true
        return 1
    fi
}
stage paper paper
