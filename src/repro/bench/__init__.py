"""Benchmark harness: regenerate every table and figure of §IV.

``figures`` holds the paper's Figs. 2–4 and the §III.d guardian-latency
claim; ``ablations`` holds the design-choice studies DESIGN.md calls
out; ``reporting`` renders paper-vs-measured tables.
"""

from .ablations import (
    atomic_deploy_rows,
    checkpoint_tradeoff_rows,
    etcd_vs_direct_rows,
    scheduler_rows,
)
from .baremetal import (
    build_config,
    dgx1_config,
    measure_bare_metal,
    measure_dgx1,
    measure_direct,
)
from .figures import (
    FIG2_PAPER,
    FIG3_PAPER,
    FIG4_PAPER,
    fig2_rows,
    fig3_rows,
    fig4_rows,
    guardian_creation_rows,
)
from .platform_runner import bench_manifest, build_platform, measure_dlaas
from .scale_runner import partition_overrides, run_scale_scenario
from .reporting import render_table

__all__ = [
    "FIG2_PAPER",
    "FIG3_PAPER",
    "FIG4_PAPER",
    "atomic_deploy_rows",
    "bench_manifest",
    "build_config",
    "build_platform",
    "checkpoint_tradeoff_rows",
    "dgx1_config",
    "etcd_vs_direct_rows",
    "fig2_rows",
    "fig3_rows",
    "fig4_rows",
    "guardian_creation_rows",
    "measure_bare_metal",
    "measure_dgx1",
    "measure_direct",
    "measure_dlaas",
    "partition_overrides",
    "render_table",
    "run_scale_scenario",
    "scheduler_rows",
]
