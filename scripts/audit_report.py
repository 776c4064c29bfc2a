"""Consistency-audit demo report (``make audit``).

Runs the two halves of the audit story back to back and prints a
human-readable report:

1. a short nemesis soak (gray faults + crashes under concurrent etcd
   clients) whose recorded history passes the linearizability checker;
2. the seeded stale-read bug (``stale_reads`` node toggle, which
   disables the leader's read lease) whose history FAILS, with the
   minimal counterexample witness rendered.

The point of the pairing: a green audit only means something if the
same checker demonstrably turns red on a real violation.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.audit.nemesis import NemesisSoak, seeded_stale_read_scenario  # noqa: E402
from repro.bench import build_platform  # noqa: E402

CONFIG = dict(history_recording=True, audit_interval=2.0,
              scrape_interval=0.25, alert_eval_interval=0.25)


def report_soak(seed, duration):
    print(f"== nemesis soak ({duration:g}s, seed {seed}) ==")
    platform = build_platform("k80", gpus_per_node=4, seed=seed, **CONFIG)
    soak = NemesisSoak(platform, **(dict(clients=4, keys=6,
                                         duration=duration)))
    out = soak.run()
    counts = out["history"]
    print(f"  clients issued {out['ops_issued']} ops "
          f"(ok={counts['ok']} fail={counts['fail']} "
          f"info/maybe-applied={counts['info']})")
    print(f"  nemesis injected {len(out['faults_injected'])} faults:")
    for when, fault in out["faults_injected"]:
        print(f"    t={when:<8} {fault.kind:<13} {fault.target}")
    audit = out["audit"]
    print(f"  auditor: {audit['passes']} passes, "
          f"{audit['ops_checked']} ops checked, "
          f"{audit['violations']} violations")
    verdict = "LINEARIZABLE" if out["ok"] else "VIOLATION"
    print(f"  verdict: {verdict}")
    if not out["ok"]:
        auditor = platform.monitoring.auditor
        print(auditor.render_violations())
    return out["ok"]


def run_seeded(seed):
    print()
    print(f"== seeded stale-read bug (seed {seed}) ==")
    platform = build_platform("k80", gpus_per_node=4, seed=seed, **CONFIG)
    for node_id in platform.etcd.node_ids:
        platform.etcd.node(node_id).stale_reads = True
    observed, outcome = seeded_stale_read_scenario(platform)
    platform.run_for(3 * CONFIG["audit_interval"])
    print("  read lease disabled (stale_reads=True on every node)")
    print(f"  deposed-leader read observed {observed!r} after a newer "
          "write committed v2")
    if outcome.ok:
        print("  verdict: PASS — the checker MISSED the seeded bug")
        return False
    print("  verdict: VIOLATION (expected) — minimal counterexample:")
    print()
    from repro.audit import render_witness
    for line in render_witness(outcome.witness).splitlines():
        print(f"  {line}")
    engine = platform.monitoring.engine
    fired = any(to == "firing"
                for _f, to in engine.transitions("ConsistencyViolation"))
    print()
    print(f"  ConsistencyViolation alert fired: {fired}")
    return fired


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument("--duration", type=float, default=20.0,
                        help="soak length in simulated seconds")
    args = parser.parse_args(argv)
    soak_ok = report_soak(args.seed, args.duration)
    seeded_caught = run_seeded(args.seed)
    print()
    if soak_ok and seeded_caught:
        print("audit report: soak linearizable, seeded bug caught — OK")
        return 0
    print("audit report: FAILED "
          f"(soak_ok={soak_ok}, seeded_caught={seeded_caught})")
    return 1


if __name__ == "__main__":
    sys.exit(main())
