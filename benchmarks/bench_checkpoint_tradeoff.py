"""Ablation (§III.g) — checkpoint interval vs lost work vs overhead.

"The checkpointing interval depends on the tolerance level of the user
to failures, i.e., how many hours of work the user is willing to lose in
the event of a failure." Sweeps the interval under a Poisson crash
process: no checkpointing loses everything on each crash; very frequent
checkpointing pays upload overhead on every interval; intermediate
settings minimize makespan.
"""

from repro.bench import checkpoint_tradeoff_rows, render_table

COLUMNS = ["ckpt interval s", "crashes", "checkpoints", "steps executed",
           "wasted steps", "makespan s"]


def test_checkpoint_tradeoff(benchmark, record_table):
    rows = benchmark.pedantic(checkpoint_tradeoff_rows, rounds=1,
                              iterations=1)
    table = render_table(
        "§III.g ablation: checkpoint interval vs lost work (MTBF 1200s)",
        COLUMNS, rows,
    )
    record_table("checkpoint_tradeoff", table)

    by_interval = {row["ckpt interval s"]: row for row in rows}
    # Checkpointing strictly reduces wasted (re-executed) work vs none.
    assert by_interval[30.0]["wasted steps"] < by_interval["off"]["wasted steps"]
    # Tighter intervals write more checkpoints.
    assert by_interval[30.0]["checkpoints"] > by_interval[600.0]["checkpoints"]
    # And with crashes present, checkpointing wins on makespan.
    if by_interval["off"]["crashes"] > 0:
        assert by_interval[30.0]["makespan s"] < by_interval["off"]["makespan s"]
