"""Fig. 3 — DLaaS (PCIe P100) vs NVidia DGX-1 (SXM2 P100, NVLink, HBM).

The paper's second table: TensorFlow HPM benchmarks on 1-2 GPUs. DGX-1
always wins (better memory system, NVLink collectives), but the paper's
point is that the degradation is "non-trivial but only modest (up to
~15%)" against hardware costing 2-3x more. Shape assertions: DGX-1 wins
every configuration, degradation <= ~16%, it grows with GPU count for
the communication-heavy models, and the single-GPU ordering follows
memory-bandwidth sensitivity (InceptionV3 < ResNet-50 < VGG-16).
"""

from repro.bench import fig3_rows, render_table

COLUMNS = ["benchmark", "framework", "gpus", "gpu type", "dgx-1 img/s",
           "dlaas img/s", "measured %", "paper %"]


def test_fig3_dgx1(benchmark, record_table):
    rows = benchmark.pedantic(fig3_rows, rounds=1, iterations=1)
    table = render_table(
        "Fig. 3: DLaaS vs NVidia DGX-1 (TensorFlow, P100, images/sec)",
        COLUMNS, rows,
    )
    record_table("fig3_dgx1", table)

    by_config = {(r["benchmark"], r["gpus"]): r for r in rows}
    for row in rows:
        assert row["measured %"] > 0.0, row  # DGX-1 always wins
        assert row["measured %"] < 16.5, row  # "only modest (up to ~15%)"
    # Single-GPU gap ordering tracks memory-bandwidth sensitivity.
    assert (by_config[("inceptionv3", 1)]["measured %"]
            < by_config[("resnet50", 1)]["measured %"]
            < by_config[("vgg16", 1)]["measured %"])
    # Communication-heavy models degrade more with a second GPU
    # (PCIe vs NVLink allreduce).
    for model in ("resnet50", "vgg16"):
        assert by_config[(model, 2)]["measured %"] > \
            by_config[(model, 1)]["measured %"]
    # The worst case is VGG-16 x 2 GPUs, as in the paper.
    worst = max(rows, key=lambda r: r["measured %"])
    assert (worst["benchmark"], worst["gpus"]) == ("vgg16", 2)
