"""Alternating parent/change pairs of one perfbench workload.

The table a host-clock claim rests on (ROADMAP, "How to read the
numbers"): the contract run

    python3 perfbench/run.py --workload W --seed N --seconds 20 --trace 0

in two checkouts, one pair after another, the side that goes first
flipped each pair so that drift of the box lands on both. Prints every
run, each side's median and quartiles, in how many pairs the change
read lower, whether that gain is claimable (:func:`verdict`), and
whether the simulated side of the result — every ``*_s`` metric but
``setup_s``, and the timeline digest — was equal in every run.
Standard library only; reads nothing of either checkout but what
``perfbench/run.py`` prints.

Usage::

    python3 scripts/pairs.py --parent /root/scratch/parent --change . \\
        --workload steady --seed 13 --pairs 10
"""

import argparse
import json
import statistics
import subprocess
import sys

HOST_METRICS = ("cpu_ref", "peak_rss_mb", "setup_s")
# The contract's run length: the same for every claim, so not an option.
SECONDS = 20


def run_once(checkout, workload, seed):
    """One contract run in ``checkout``: its metrics, digest and failed /
    attempted counts."""
    finished = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = finished.stdout.splitlines()
    if not lines:
        raise SystemExit(f"{checkout}: no output\n{finished.stderr}")
    result = json.loads(lines[-1])
    digest = next(line.split()[1] for line in lines
                  if line.startswith("digest "))
    return {"metrics": {name: cell["value"]
                        for name, cell in result["metrics"].items()},
            "digest": digest, "failed": result["failed"],
            "attempted": result["attempted"]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4,
                                             method="inclusive")
    return low, median, high


def verdict(parent, change):
    """Whether a lower-is-better metric's gain is claimable, and why.

    ``parent`` and ``change`` are one column each, run ``i`` of both
    sides being pair ``i``. The rule (choosing-metrics §8): the change
    reads lower in at least nine tenths of the pairs, a tie counting
    for neither side, and the parent's median exceeds the change's by
    more than the parent's interquartile range. Returns
    ``(claimable, reason)``.
    """
    pairs = len(parent)
    wins = sum(c < p for p, c in zip(parent, change))
    low, _median, high = quartiles(parent)
    spread = high - low
    gap = statistics.median(parent) - statistics.median(change)
    if wins * 10 < pairs * 9:
        return False, f"lower in {wins} / {pairs} pairs, 9 / 10 needed"
    if gap <= spread:
        return False, (f"median gap {gap:.4f} is not above the parent's "
                       f"interquartile range {spread:.4f}")
    return True, (f"lower in {wins} / {pairs} pairs, median gap {gap:.4f} "
                  f"above the parent's interquartile range {spread:.4f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, metavar="DIR")
    parser.add_argument("--change", required=True, metavar="DIR")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    runs = {"parent": [], "change": []}
    checkouts = {"parent": args.parent, "change": args.change}
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of "
          f"--seconds {SECONDS} --trace 0")
    print("pair first   " + "".join(f"{side + ' ' + name:>20}"
                                    for name in HOST_METRICS
                                    for side in ("parent", "change")))
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(checkouts[side], args.workload,
                                       args.seed))
        print(f"{pair + 1:>4} {order[0]:7} " + "".join(
            f"{runs[side][-1]['metrics'][name]:>20.4f}"
            for name in HOST_METRICS for side in ("parent", "change")),
            flush=True)

    print()
    for name in HOST_METRICS:
        columns = {side: [run["metrics"][name] for run in runs[side]]
                   for side in runs}
        for side, values in columns.items():
            low, median, high = quartiles(values)
            print(f"{name:12} {side:6} median {median:9.4f}  "
                  f"quartiles [{low:.4f}, {high:.4f}]")
        wins = sum(c < p for p, c in zip(columns["parent"],
                                         columns["change"]))
        ties = sum(c == p for p, c in zip(columns["parent"],
                                          columns["change"]))
        parent_median = statistics.median(columns["parent"])
        shift = statistics.median(columns["change"]) / parent_median - 1
        print(f"{name:12} change lower in {wins} / {args.pairs} pairs"
              f"{f' ({ties} ties)' if ties else ''}, median {shift:+.1%} "
              f"of the parent's {parent_median:.4f}")
        claimable, reason = verdict(columns["parent"], columns["change"])
        print(f"{name:12} {'claimable' if claimable else 'not claimable'}: "
              f"{reason}")

    everything = runs["parent"] + runs["change"]
    first = everything[0]
    simulated = sorted(name for name in first["metrics"]
                       if name.endswith("_s") and name != "setup_s")
    moved = [name for name in simulated
             if any(run["metrics"][name] != first["metrics"][name]
                    for run in everything)]
    digests = sorted({run["digest"] for run in everything})
    print(f"\nsimulated-clock metrics ({', '.join(simulated)}): "
          + ("equal in every run" if not moved
             else "MOVED: " + ", ".join(moved)))
    print("digest: " + (f"equal in every run ({digests[0][:8]}…)"
                        if len(digests) == 1
                        else "MOVED: " + ", ".join(d[:8] for d in digests)))
    for side, side_runs in runs.items():
        print(f"{side}: failed {sum(r['failed'] for r in side_runs)} / "
              f"attempted {sum(r['attempted'] for r in side_runs)}")
    return 0 if not moved and len(digests) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
