#!/usr/bin/env python
"""Run a job, inject a crash, and print the monitoring dashboard.

The demo drives the full observability pipeline: the scraper samples
``up{component=...}`` and the platform metrics into the time-series
store, the injected API crash dips ``up{component=api}`` and walks the
``ApiDown`` alert through pending -> firing -> resolved, and the event
log records the whole episode. The dashboard then renders component
sparklines, key series, gray-divergence scores, active alerts and the
recent events.

``--gray`` injects a gray fault instead of the crash — a slow API
replica whose health probe keeps passing — so the divergence panel and
the GrayFailureSlow alert light up while every ``up`` sparkline stays
solid.

Usage::

    PYTHONPATH=src python scripts/dashboard.py [--steps N]
        [--no-crash | --gray]
"""

import argparse

from repro.bench import bench_manifest, build_platform
from repro.core import Fault, fire
from repro.monitoring import render_dashboard


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=60,
                        help="training steps for the demo job")
    parser.add_argument("--no-crash", action="store_true",
                        help="skip the injected API crash")
    parser.add_argument("--gray", action="store_true",
                        help="inject a gray fault (slow API replica) "
                             "instead of the crash")
    args = parser.parse_args(argv)

    overrides = {}
    if args.gray:
        # Tight cadence + short stats window so the divergence shows up
        # within the demo's few simulated seconds.
        overrides = dict(scrape_interval=0.25, alert_eval_interval=0.25,
                         gray_window=3.0, gray_alert_for=0.5)
    platform = build_platform("k80", gpus_per_node=4, **overrides)
    manifest = bench_manifest("vgg16", "tensorflow", gpus=1, gpu_type="k80",
                              steps=args.steps, learners=1)
    client = platform.client("dashboard-demo")

    job_id = platform.run_process(client.submit(manifest))
    platform.run_for(10.0)  # deploy + start training

    if args.gray:
        # Detection is differential, so the replicas need a steady
        # request stream to diverge on: poll job status through the
        # balancer (round-robined across the API endpoints).
        def poll():
            while True:
                yield from client.status(job_id)
                yield platform.kernel.sleep(0.1)

        platform.kernel.spawn(poll(), name="status-poller")
        platform.run_for(4.0)  # healthy peer baseline
        target = fire(platform, Fault("slow", platform.api_balancer.endpoints[0],
                                      0.05, 10.0))
        print(f"injected slow-endpoint gray fault on {target} "
              f"at t={platform.kernel.now:.1f}s (health probe stays up)\n")
        platform.run_for(18.0)  # divergence scored, alert fires, resolves
    elif not args.no_crash:
        when = platform.kernel.now
        pod = fire(platform, Fault("api"))
        print(f"injected API crash at t={when:.1f}s (pod {pod})\n")
        platform.run_for(15.0)  # outage detected, alert fires, pod recovers

    doc = platform.run_process(
        client.wait_for_status(job_id, timeout=10_000), limit=5_000_000)
    print(f"job {job_id} finished: {doc['status']}\n")
    print(render_dashboard(platform))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
