"""Fig. 2 — Performance overhead of DLaaS vs IBM Cloud bare metal.

Regenerates the paper's first evaluation table: images/sec for training
VGG-16 (Caffe) and InceptionV3 (TensorFlow) on 1-4 PCIe K80 GPUs, DLaaS
(full simulated platform, containerized, data streamed from the object
store) against a bare-metal run of the same workload. The paper reports
overheads of 0.32-5.88% with no monotone structure; the shape assertion
checks every configuration stays in the single-digit band and DLaaS
never wins.
"""

from repro.bench import fig2_rows, render_table

COLUMNS = ["benchmark", "framework", "gpus", "bare-metal img/s", "dlaas img/s",
           "measured %", "paper %"]


def test_fig2_overhead(benchmark, record_table):
    rows = benchmark.pedantic(fig2_rows, rounds=1, iterations=1)
    table = render_table(
        "Fig. 2: DLaaS vs IBM Cloud bare metal (K80, images/sec)", COLUMNS, rows
    )
    record_table("fig2_overhead", table)

    for row in rows:
        # Shape: overhead exists, is minimal (single digits), never negative.
        assert 0.0 < row["measured %"] < 7.0, row
        assert row["dlaas img/s"] < row["bare-metal img/s"], row
    # Shape: throughput scales with GPU count on both platforms.
    by_config = {(r["benchmark"], r["gpus"]): r for r in rows}
    for model in ("vgg16", "inceptionv3"):
        ips = [by_config[(model, g)]["dlaas img/s"] for g in (1, 2, 3, 4)]
        assert ips == sorted(ips)
