"""§III.d — Guardian creation latency.

"Creation of the Guardian is a very quick (less than 3s in our
experiments) single step process." Measured here as the interval from
the LCM creating the Guardian K8S Job to the Guardian container
actively running, across a batch of submissions.
"""

from repro.bench import guardian_creation_rows, render_table

COLUMNS = ["jobs", "min s", "mean s", "max s", "paper"]


def test_guardian_creation(benchmark, record_table):
    rows = benchmark.pedantic(guardian_creation_rows, rounds=1, iterations=1)
    table = render_table("§III.d: Guardian creation latency", COLUMNS, rows)
    record_table("guardian_creation", table)
    assert rows[0]["max s"] < 3.0
