"""Fig. 4 — Time to recover from crash failures, by component.

The paper crashes each component with kubectl and measures restart time:
API 3-5s, LCM 4-6s, Guardian 1-2s, Helper 3-4s, Learner 10-20s. This
bench does exactly that against the simulated platform: repeated forced
pod deletions while a training job runs, recovery measured from the
crash instant to the component's next component-ready trace event.

Shape assertions: the *ordering* of the paper's Fig. 4 holds — Guardian
fastest (tiny stateless image), Helper/API middle, LCM a bit slower,
Learner slowest by a wide margin (framework startup + object-store and
volume binding) — and each component's measurements land inside (or
within 25% of) the paper's band.
"""

from repro.bench import FIG4_PAPER, fig4_rows, render_table

COLUMNS = ["component", "trials", "min s", "mean s", "max s", "paper"]


def test_fig4_recovery(benchmark, record_table):
    rows = benchmark.pedantic(fig4_rows, rounds=1, iterations=1)
    table = render_table(
        "Fig. 4: time to recover from crash failures, by component", COLUMNS, rows
    )
    record_table("fig4_recovery", table)

    means = {row["component"]: row["mean s"] for row in rows}
    for component, (low, high) in FIG4_PAPER.items():
        measured = means[component]
        assert low * 0.75 <= measured <= high * 1.25, (
            f"{component}: {measured:.2f}s outside paper band [{low}, {high}]"
        )
    # Ordering: Guardian fastest, Learner slowest by a wide margin.
    assert means["Guardian"] == min(means.values())
    assert means["Learner"] == max(means.values())
    assert means["Learner"] > 2 * means["LCM"]
    for row in rows:
        assert row["trials"] == 5  # every injected crash recovered
