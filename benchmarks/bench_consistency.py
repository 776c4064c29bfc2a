"""Consistency-audit benchmark: checker throughput + nemesis soak gate.

Three measurements over the ``repro.audit`` pipeline (flight recorder
-> linearizability checker -> ``ConsistencyViolation`` alert):

1. **Nemesis soak** — concurrent clients hammer etcd while a nemesis
   mixes every gray impairment kind with crash faults; the recorded
   client history must PASS the checker, both through the online
   auditor and through a from-scratch re-check. The re-check is timed:
   ops-checked/sec and checker wall are the audit-cost numbers of
   EXPERIMENTS.md.
2. **Seeded bug** — the ``stale_reads`` node toggle disables the read
   lease; a deterministic partition scenario then manufactures a stale
   read and the checker must FAIL with a rendered counterexample, and
   the ``ConsistencyViolation`` alert must reach firing. This proves
   the green soak above is a real verdict, not a vacuous checker.
3. **Digest identity** — the training smoke scenario run with
   ``history_recording=True`` must replay the digest committed in
   ``BENCH_perf.json`` bit for bit: recording is direct appends, no
   RPCs/RNG/sleeps.

Invoke directly for the full measurement (updates the ``consistency``
section of ``BENCH_perf.json`` and prints the EXPERIMENTS.md table)::

    PYTHONPATH=src python benchmarks/bench_consistency.py

or as the CI smoke gate (shorter soak, same invariants)::

    PYTHONPATH=src python benchmarks/bench_consistency.py --check
"""

import argparse
import json
import sys
import time
from pathlib import Path

import bench_perf

from repro.audit import check_history, render_witness
from repro.audit.nemesis import NemesisSoak, seeded_stale_read_scenario
from repro.bench import bench_manifest, build_platform, render_table
from repro.core import timeline_digest

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_perf.json"

# Tight monitoring cadence so the online auditor gets many passes per
# soak; recording itself is timeline-neutral regardless.
FAST = dict(history_recording=True, audit_interval=2.0,
            scrape_interval=0.25, alert_eval_interval=0.25,
            event_flush_interval=1.0)

SOAK = dict(clients=4, keys=6, duration=40.0)
SOAK_SMOKE = dict(clients=3, keys=4, duration=15.0)

# Wall-clock floor for the from-scratch re-check: deliberately loose
# (the observed rate is orders of magnitude higher) — it exists to
# catch a complexity regression, not machine-to-machine variance.
MIN_OPS_CHECKED_PER_SEC = 200.0

COLUMNS = ["scenario", "ops", "faults", "checker verdict", "checker wall s",
           "ops/s"]


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------

def run_soak(seed=23, **soak_overrides):
    """Mixed gray+crash soak; returns audit outcome and checker cost."""
    platform = build_platform("k80", gpus_per_node=4, seed=seed, **FAST)
    soak = NemesisSoak(platform, **{**SOAK, **soak_overrides})
    out = soak.run()
    # From-scratch re-check of the full history, timed: the online
    # auditor amortizes via closed-prefix compaction, so this is the
    # worst-case checker cost for the soak's history.
    start = time.perf_counter()
    recheck = check_history(platform.history)
    wall = time.perf_counter() - start
    return {
        "ops_issued": out["ops_issued"],
        "faults_injected": len(out["faults_injected"]),
        "history": out["history"],
        "online_audit": out["audit"],
        "soak_ok": out["ok"],
        "recheck_ok": recheck.ok,
        "keys_checked": recheck.keys_checked,
        "ops_checked": recheck.ops_checked,
        "checker_wall_s": round(wall, 4),
        "ops_checked_per_sec": (round(recheck.ops_checked / wall, 1)
                                if wall > 0 else None),
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


def run_digest_identity():
    """The training smoke scenario with recording ON must replay the
    committed smoke digest bit for bit. ``bench_perf.run_scenario``
    takes no config overrides, so the drive loop is replicated here
    verbatim on a ``history_recording=True`` platform."""
    committed = (json.loads(RESULT_PATH.read_text())
                 if RESULT_PATH.exists() else {})
    expected = committed.get("smoke", {}).get("digest")
    scenario = bench_perf.SMOKE
    platform = build_platform(
        "k80", gpus_per_node=scenario["gpus_per_node"],
        gpu_nodes=scenario["gpu_nodes"], seed=scenario["seed"],
        history_recording=True,
    )
    client = platform.client("perf")

    def drive():
        ids = []
        for i in range(scenario["jobs"]):
            manifest = bench_manifest("resnet50", "tensorflow", 2, "k80",
                                      steps=scenario["steps"])
            manifest["name"] = f"perf-{i}"
            ids.append((yield from client.submit(manifest)))
        docs = []
        for job_id in ids:
            docs.append((yield from client.wait_for_status(
                job_id, timeout=100_000)))
        return docs

    docs = platform.run_process(drive(), limit=500_000)
    platform.run_for(30.0)
    measured = timeline_digest(platform, docs)
    auditor = platform.monitoring.auditor
    return {
        "expected": expected,
        "measured": measured,
        "identical": expected == measured,
        "history_ops": len(platform.history),
        "platform_ops_audited": auditor.ops_checked,
        "platform_audit_clean": auditor.ok,
    }


# ----------------------------------------------------------------------
# Assertions / rendering / entry points
# ----------------------------------------------------------------------

def assert_consistency(result, perf_floor=True):
    soak = result["soak"]
    assert soak["soak_ok"], (
        f"nemesis soak history failed the online audit: "
        f"{soak['online_audit']}")
    assert soak["recheck_ok"], "from-scratch re-check found a violation"
    assert soak["history"]["ok"] > 0, f"soak recorded no ops: {soak}"
    assert soak["faults_injected"] > 0, "nemesis injected nothing"
    if perf_floor:
        assert soak["ops_checked_per_sec"] >= MIN_OPS_CHECKED_PER_SEC, (
            f"checker throughput {soak['ops_checked_per_sec']} ops/s "
            f"below the {MIN_OPS_CHECKED_PER_SEC} floor")
    seeded = result["seeded_bug"]
    assert seeded["violation_detected"], (
        "checker passed a seeded stale read (vacuous checker)")
    assert seeded["witness"], "violation reported without a witness"
    assert seeded["alert_fired"], (
        "ConsistencyViolation alert never reached firing")
    digest = result["timeline_digest"]
    assert digest["identical"], (
        "history recording drifted the training timeline from the "
        f"committed smoke digest: {digest}")
    assert digest["platform_audit_clean"], (
        "the platform's own etcd traffic failed the audit")
    return result


def render(result):
    soak = result["soak"]
    rows = [
        {"scenario": "nemesis soak", "ops": soak["history"]["ok"],
         "faults": soak["faults_injected"],
         "checker verdict": "PASS" if soak["recheck_ok"] else "FAIL",
         "checker wall s": soak["checker_wall_s"],
         "ops/s": soak["ops_checked_per_sec"]},
        {"scenario": "seeded stale read", "ops": 3, "faults": 1,
         "checker verdict": ("FAIL (expected)"
                             if result["seeded_bug"]["violation_detected"]
                             else "PASS (bug!)"),
         "checker wall s": "-", "ops/s": "-"},
        {"scenario": "training smoke (audit on)",
         "ops": result["timeline_digest"]["history_ops"], "faults": 0,
         "checker verdict": ("PASS"
                             if result["timeline_digest"]
                             ["platform_audit_clean"] else "FAIL"),
         "checker wall s": "-", "ops/s": "-"},
    ]
    return render_table(
        "Consistency audit (linearizability checker under nemesis)",
        COLUMNS, rows)


def run_full():
    return {
        "soak": run_soak(),
        "seeded_bug": run_seeded_bug(),
        "timeline_digest": run_digest_identity(),
    }


def run_check():
    """CI smoke gate: shorter soak, same invariants, no perf floor."""
    if not RESULT_PATH.exists():
        print(f"error: {RESULT_PATH} missing; run the full bench first",
              file=sys.stderr)
        return 2
    committed = json.loads(RESULT_PATH.read_text()).get("consistency")
    if committed is None:
        print("error: no committed consistency section; run "
              "`python benchmarks/bench_consistency.py` first",
              file=sys.stderr)
        return 2
    result = {
        "soak": run_soak(**SOAK_SMOKE),
        "seeded_bug": run_seeded_bug(),
        "timeline_digest": run_digest_identity(),
    }
    try:
        assert_consistency(result, perf_floor=False)
    except AssertionError as exc:
        print(f"consistency smoke: FAIL {exc}", file=sys.stderr)
        seeded = result["seeded_bug"]
        if seeded.get("witness"):
            print(seeded["witness"], file=sys.stderr)
        return 1
    soak = result["soak"]
    print(f"consistency smoke: soak {soak['history']['ok']} ops / "
          f"{soak['faults_injected']} faults -> linearizable [ok]")
    print("consistency smoke: seeded stale read caught, "
          "ConsistencyViolation fired [ok]")
    print("consistency smoke: recording-on timeline digest identical [ok]")
    return 0


def test_consistency_gate(record_table):
    """Benchmark-suite entry: full soak + seeded bug + digest."""
    result = assert_consistency(run_full())
    record_table("consistency", render(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="smoke gate against committed BENCH_perf.json")
    args = parser.parse_args(argv)
    if args.check:
        return run_check()
    result = assert_consistency(run_full())
    committed = (json.loads(RESULT_PATH.read_text())
                 if RESULT_PATH.exists() else {})
    committed["consistency"] = result
    RESULT_PATH.write_text(json.dumps(committed, indent=2) + "\n")
    print(render(result))
    seeded_witness = result["seeded_bug"]["witness"]
    if seeded_witness:
        print()
        print("seeded-bug counterexample (the checker's FAIL evidence):")
        print(seeded_witness)
    print(f"updated consistency section of {RESULT_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
