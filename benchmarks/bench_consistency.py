"""Consistency-audit benchmark: nemesis soak + seeded-bug gate.

Two measurements over the ``repro.audit`` pipeline (flight recorder
-> linearizability checker -> ``ConsistencyViolation`` alert):

1. **Nemesis soak** — concurrent clients hammer etcd while a nemesis
   mixes every gray impairment kind with crash faults; the recorded
   client history must PASS the checker, both through the online
   auditor and through a from-scratch re-check. (What the auditor
   costs the host is perfbench ``chaos``, ``audit.audit_once.host_s``.)
2. **Seeded bug** — the ``stale_reads`` node toggle disables the read
   lease; a deterministic partition scenario then manufactures a stale
   read and the checker must FAIL with a rendered counterexample, and
   the ``ConsistencyViolation`` alert must reach firing. This proves
   the green soak above is a real verdict, not a vacuous checker.

Recording is direct appends (no RPCs/RNG/sleeps): the training smoke
timeline with ``history_recording=True`` is pinned to the recording-off
digest by ``tests/integration/test_timeline_pin.py``.

Invoke directly for the full measurement (updates the ``consistency``
section of ``BENCH_perf.json`` and prints the EXPERIMENTS.md table)::

    PYTHONPATH=src python benchmarks/bench_consistency.py

``make check`` runs a shorter soak under the same assertions::

    PYTHONPATH=src python -m pytest benchmarks -k smoke
"""

import sys

from conftest import write_section

from repro.audit import check_history, render_witness
from repro.audit.nemesis import NemesisSoak, seeded_stale_read_scenario
from repro.bench import build_platform, render_table

# Tight monitoring cadence so the online auditor gets many passes per
# soak; recording itself is timeline-neutral regardless.
FAST = dict(history_recording=True, audit_interval=2.0,
            scrape_interval=0.25, alert_eval_interval=0.25,
            event_flush_interval=1.0)

SOAK = dict(clients=4, keys=6, duration=40.0)
SOAK_SMOKE = dict(clients=3, keys=4, duration=15.0)

COLUMNS = ["scenario", "ops", "faults", "checker verdict"]


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------

def run_soak(seed=23, **soak_overrides):
    """Mixed gray+crash soak; returns the online audit outcome and a
    from-scratch re-check of the full history (the online auditor
    checks closed prefixes and compacts them away)."""
    platform = build_platform("k80", gpus_per_node=4, seed=seed, **FAST)
    soak = NemesisSoak(platform, **{**SOAK, **soak_overrides})
    out = soak.run()
    recheck = check_history(platform.history)
    return {
        "ops_issued": out["ops_issued"],
        "faults_injected": len(out["faults_injected"]),
        "history": out["history"],
        "online_audit": out["audit"],
        "soak_ok": out["ok"],
        "recheck_ok": recheck.ok,
        "keys_checked": recheck.keys_checked,
        "ops_checked": recheck.ops_checked,
    }


def run_seeded_bug(seed=5):
    """Stale-read bug enabled: the checker must fail, the alert fire."""
    platform = build_platform("k80", gpus_per_node=4, seed=seed, **FAST)
    for node_id in platform.etcd.node_ids:
        platform.etcd.node(node_id).stale_reads = True
    observed, outcome = seeded_stale_read_scenario(platform)
    # Let the online pipeline catch up: auditor pass -> counter bump ->
    # scrape -> ConsistencyViolation (for: 0) firing.
    platform.run_for(3 * FAST["audit_interval"])
    engine = platform.monitoring.engine
    fired = any(to == "firing"
                for _from, to in engine.transitions("ConsistencyViolation"))
    return {
        "observed": observed,
        "violation_detected": not outcome.ok,
        "alert_fired": fired,
        "witness": (render_witness(outcome.witness)
                    if outcome.witness else None),
    }


# ----------------------------------------------------------------------
# Assertions / rendering / entry points
# ----------------------------------------------------------------------

def assert_consistency(result):
    soak = result["soak"]
    assert soak["soak_ok"], (
        f"nemesis soak history failed the online audit: "
        f"{soak['online_audit']}")
    assert soak["recheck_ok"], "from-scratch re-check found a violation"
    assert soak["history"]["ok"] > 0, f"soak recorded no ops: {soak}"
    assert soak["faults_injected"] > 0, "nemesis injected nothing"
    seeded = result["seeded_bug"]
    assert seeded["violation_detected"], (
        "checker passed a seeded stale read (vacuous checker)")
    assert seeded["witness"], "violation reported without a witness"
    assert seeded["alert_fired"], (
        "ConsistencyViolation alert never reached firing")
    return result


def render(result):
    soak = result["soak"]
    rows = [
        {"scenario": "nemesis soak", "ops": soak["history"]["ok"],
         "faults": soak["faults_injected"],
         "checker verdict": "PASS" if soak["recheck_ok"] else "FAIL"},
        {"scenario": "seeded stale read", "ops": 3, "faults": 1,
         "checker verdict": ("FAIL (expected)"
                             if result["seeded_bug"]["violation_detected"]
                             else "PASS (bug!)")},
    ]
    return render_table(
        "Consistency audit (linearizability checker under nemesis)",
        COLUMNS, rows)


def run_full():
    return {
        "soak": run_soak(),
        "seeded_bug": run_seeded_bug(),
    }


def test_consistency_smoke():
    """``make check`` entry: shorter soak, same invariants."""
    assert_consistency({
        "soak": run_soak(**SOAK_SMOKE),
        "seeded_bug": run_seeded_bug(),
    })


def test_consistency_gate(record_table):
    """Benchmark-suite entry: full soak + seeded bug + digest."""
    result = assert_consistency(run_full())
    record_table("consistency", render(result))


def main():
    result = assert_consistency(run_full())
    print(render(result))
    print()
    print("seeded-bug counterexample (the checker's FAIL evidence):")
    print(result["seeded_bug"]["witness"])
    write_section("consistency", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
