#!/usr/bin/env python3
"""Chaos day: crash every component while a job trains.

Reproduces the paper's dependability narrative (§IV): each component —
API, LCM, Guardian, helper, learner, an ETCD member, a MongoDB member,
even a whole node — fails independently while one training job runs,
and the job still completes with a sane status history. The failures
are a list of ``Fault``s fired one by one (``repro.core.faults``).
Prints a recovery timeline built from trace events, the same
measurement Fig. 4 reports.

Run:  python examples/chaos_day.py
"""

from repro import DlaasPlatform, Fault, fire
from repro.core import PlatformConfig, recovery_time

CREDENTIALS = {"access_key": "AK", "secret": "SK"}
SETTLE = 25.0  # simulated seconds between faults, and a reboot's length


def main():
    platform = DlaasPlatform(
        seed=13,
        config=PlatformConfig(gpu_nodes=3, gpus_per_node=2, gpu_type="k80"),
    ).start()
    platform.seed_training_data("train", CREDENTIALS, size_mb=300)
    platform.ensure_results_bucket("out", CREDENTIALS)
    client = platform.client("chaos-team")

    manifest = {
        "name": "survivor",
        "framework": "tensorflow",
        "model": "inceptionv3",
        "learners": 1,
        "gpus_per_learner": 1,
        "gpu_type": "k80",
        "target_steps": 900,
        "checkpoint_interval": 30.0,
        "dataset_size_mb": 300,
        "data": {"bucket": "train", "credentials": CREDENTIALS},
        "results": {"bucket": "out", "credentials": CREDENTIALS},
    }

    def submit():
        job_id = yield from client.submit(manifest)
        yield from client.wait_for_status(job_id, statuses={"PROCESSING"},
                                          timeout=2000)
        return job_id

    job_id = platform.run_process(submit(), limit=10_000)
    print(f"{job_id} is PROCESSING; beginning the chaos schedule\n")

    # The day's schedule, one fault every SETTLE seconds. The machine,
    # the ETCD leader and the MongoDB primary come back SETTLE seconds
    # after they go down, so the job finishes on a full-strength platform.
    schedule = [
        ("API pod", Fault("api"), "api"),
        ("LCM pod", Fault("lcm"), "lcm"),
        ("Guardian pod", Fault("guardian", job_id), "guardian"),
        ("helper pod", Fault("helper", job_id), "controller"),
        ("controller container", Fault("controller-container", job_id),
         "controller"),
        ("learner pod", Fault("learner-pod", (job_id, 0)), "learner-0"),
        ("learner's node", Fault("node", job_id, duration=SETTLE),
         "learner-0"),
        ("ETCD leader", Fault("etcd-member", platform.etcd.leader().node_id,
                              duration=SETTLE), None),
        ("MongoDB primary", Fault("mongo-member", platform.mongo.primary_id(),
                                  duration=SETTLE), None),
    ]
    timeline = []
    for label, fault, component in schedule:
        when = platform.kernel.now
        target = fire(platform, fault)
        platform.run_for(SETTLE)
        timeline.append((when, label, component))
        print(f"t={when:8.1f}s  crashed {label:<22} ({target})")

    def finish():
        return (yield from client.wait_for_status(job_id, timeout=30_000))

    doc = platform.run_process(finish(), limit=200_000)
    alive = {
        "ETCD members": [n.alive for n in platform.etcd.nodes.values()],
        "MongoDB members": [m.alive for m in platform.mongo.members.values()],
        "nodes": [k.alive for k in platform.k8s.kubelets.values()],
    }
    print("\nback at full strength: " + ", ".join(
        f"{sum(up)}/{len(up)} {what}" for what, up in alive.items()))

    print(f"\n=== {job_id}: {doc['status']} despite {len(schedule)} "
          "injected failures ===")
    print("status history:")
    for entry in doc["status_history"]:
        print(f"  {entry['time']:9.1f}s  {entry['status']}")

    print("\nrecovery timeline (crash -> component-ready):")
    for when, label, component in timeline:
        if component is None:
            continue
        match = {} if component in ("api", "lcm") else {"job": job_id}
        recovery = recovery_time(platform, component, when, **match)
        shown = f"{recovery:6.1f}s" if recovery is not None else "   n/a"
        print(f"  {label:<22} {shown}")

    resumed = platform.tracer.query(component="learner-0", kind="component-ready",
                                    job=job_id)
    print(f"\nlearner incarnations: {len(resumed)}; resume points: "
          f"{[r.fields['resumed_step'] for r in resumed]}")
    print("(non-zero resume points = work recovered from checkpoints, §III.g-h)")

    from repro.core import job_timeline, render_timeline

    print("\nabridged job timeline:")
    print(render_timeline(job_timeline(platform, job_id, status_doc=doc),
                          limit=24))


if __name__ == "__main__":
    main()
