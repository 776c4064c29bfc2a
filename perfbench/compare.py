"""``--compare A.json B.json``: did B get worse than A, by the bounds?

Both files are full reports (``python3 perfbench/run.py --out FILE``).
Per workload and end-to-end metric: both medians, the relative change
(positive = B worse), the metric's bound and a verdict:

* ``unresolved`` — the run-to-run spread of either side (quartile
  distance over median) is wider than the bound, so the bound cannot be
  checked;
* ``worse`` — B's median is worse than A's by more than the bound;
* ``better`` — B's median is better by more than A's own spread;
* ``same`` — otherwise.
"""

import json


def verdict(a, b, bound):
    """``(relative change, spread, verdict)`` for two summaries with
    ``median``, ``q1`` and ``q3``; every metric is better lower."""
    base = a["median"]
    change = (b["median"] - base) / base if base else 0.0
    spread_a = (a["q3"] - a["q1"]) / base if base else 0.0
    spread_b = (b["q3"] - b["q1"]) / b["median"] if b["median"] else 0.0
    spread = max(spread_a, spread_b)
    if spread > bound:
        return change, spread, "unresolved"
    if change > bound:
        return change, spread, "worse"
    if change < 0 and -change > spread_a:
        return change, spread, "better"
    return change, spread, "same"


def compare(a, b):
    """Rows ``(workload, metric, median a, median b, change, spread,
    bound, verdict)`` over what both reports hold."""
    rows = []
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None:
            continue
        for metric, summary_a in entry_a["end_to_end"].items():
            summary_b = entry_b["end_to_end"].get(metric)
            if summary_b is None:
                continue
            bound = summary_a["bound"]
            change, spread, result = verdict(summary_a, summary_b, bound)
            rows.append((workload, metric, summary_a["median"],
                         summary_b["median"], change, spread, bound, result))
    return rows


def compare_files(path_a, path_b):
    a, b = json.loads(path_a.read_text()), json.loads(path_b.read_text())
    rows = compare(a, b)
    print(f"{'workload':12s} {'metric':22s} {'A':>11s} {'B':>11s} "
          f"{'change':>8s} {'spread':>7s} {'bound':>6s} verdict")
    for workload, metric, med_a, med_b, change, spread, bound, result in rows:
        print(f"{workload:12s} {metric:22s} {med_a:11.5g} {med_b:11.5g} "
              f"{change:+8.2%} {spread:7.2%} {bound:6.0%} {result}")
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload, {})
        seeds = set(entry_a["digests"]) & set(entry_b.get("digests", {}))
        changed = any(entry_a["digests"][s] != entry_b["digests"][s]
                      for s in seeds)
        if seeds:
            print(f"{workload:12s} timeline_changed: {str(changed).lower()}")
    return 1 if any(row[-1] == "worse" for row in rows) else 0
