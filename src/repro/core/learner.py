"""The learner container workload (paper §III.a, §III.e, §III.h).

A learner is the DL framework image instantiated with user code. The
platform treats it as a black box that:

* waits for training data on the shared NFS volume (staged by the
  load-data helper),
* binds to the cloud object store for checkpoints,
* trains, writing status/progress/log lines to its NFS directory,
* writes its exit code to NFS on orderly termination — the signal the
  helper pod's controller watches for failure/completion detection.

Crash recovery is entirely the platform's: Kubernetes restarts the
container or recreates the pod (StatefulSet), and the fresh learner
resumes from the latest checkpoint.
"""

import json

from ..frameworks import (
    DLAAS,
    CheckpointPolicy,
    CheckpointStore,
    ETH_1G,
    PCIE3,
    WorkloadConfig,
    TrainingRun,
    get_framework,
    get_gpu,
    get_model,
    synthetic_loss,
)
from . import layout
from .fswatch import wait_for_condition, wait_for_file
from .states import COMPLETED, FAILED, HALTED, PROCESSING

WAITING_DATA = "WAITING_DATA"

COS_BIND_TIME = 2.5  # object-store bind (drives the Fig. 4 learner band)
PROGRESS_EVERY = 20  # steps between status-file progress reports


def write_learner_status(mount, ordinal, status, step, time, loss=None):
    record = {"status": status, "step": step, "time": time}
    if loss is not None:
        record["loss"] = round(loss, 6)
    mount.write_file(layout.learner_status_file(ordinal), json.dumps(record))


def read_learner_status(mount, ordinal):
    path = layout.learner_status_file(ordinal)
    if not mount.exists(path):
        return None
    return json.loads(mount.read_file(path))


def workload_config_for(manifest):
    """Map a manifest to the analytic performance-model configuration."""
    return WorkloadConfig(
        model=get_model(manifest.model),
        framework=get_framework(manifest.framework),
        gpu=get_gpu(manifest.gpu_type),
        gpus_per_learner=manifest.gpus_per_learner,
        learners=manifest.learners,
        batch_per_gpu=manifest.batch_per_gpu,
        intra_node=PCIE3 if manifest.gpus_per_learner > 1 else None,
        inter_node=ETH_1G,
    )


def make_learner_workload(platform, job_id, manifest):
    """Workload factory for the learner StatefulSet's pod template."""

    def workload(ctx):
        kernel = ctx.kernel
        ordinal = int(ctx.env.get("ORDINAL", "0"))
        mount = ctx.mounts["job"]
        log_path = layout.learner_log_file(ordinal)

        def log(line):
            mount.append_line(log_path, f"[{kernel.now:10.2f}] {line}")

        # A learner restarted (restart policy Always) after an orderly
        # zero exit has nothing left to do; idle until teardown.
        exit_path = layout.learner_exit_file(ordinal)
        if mount.exists(exit_path) and mount.read_file(exit_path).strip() == "0":
            yield ctx.stop_event
            return 0

        log(f"learner-{ordinal} starting for {job_id}")
        span = platform.tracer.start_span(
            "learner.run", component=f"learner-{ordinal}",
            parent=platform.tracer.context_of(("job-run", job_id)),
            job=job_id, ordinal=ordinal)
        write_learner_status(mount, ordinal, WAITING_DATA, 0, kernel.now)

        # Wait for the load-data helper to stage the training data,
        # waking on the NFS change notification rather than polling.
        ready = yield from wait_for_file(ctx, mount, layout.DATA_READY)
        if not ready:
            mount.write_file(layout.learner_exit_file(ordinal), "143")
            span.end("error")
            return 143

        # MPI wire-up barrier (paper §II: deployment involves "setting
        # up network (MPI) interconnections"): synchronous distributed
        # training cannot start until every learner is present. This is
        # why the scheduler gang-places learner pods — a partially
        # placed job would hold its GPUs here forever.
        if manifest.learners > 1:
            mount.write_file(f"{layout.learner_dir(ordinal)}/joined", "1")
            log(f"waiting at MPI barrier for {manifest.learners} learners")

            def all_joined():
                return all(
                    mount.exists(f"{layout.learner_dir(peer)}/joined")
                    for peer in range(manifest.learners)
                )

            joined = yield from wait_for_condition(ctx, mount, "/learners/",
                                                   all_joined)
            if not joined:
                mount.write_file(layout.learner_exit_file(ordinal), "143")
                span.end("error")
                return 143

        # Bind to the cloud object store (credentials + connector
        # startup) — part of why learners take longest to recover.
        yield kernel.sleep(COS_BIND_TIME)

        checkpoints = CheckpointStore(
            platform.object_store,
            manifest.results.bucket,
            f"{job_id}/checkpoints",
            manifest.results.credentials,
        )

        def on_progress(step, now):
            loss = synthetic_loss(manifest.learning_rate, step)
            write_learner_status(mount, ordinal, PROCESSING, step, now, loss=loss)
            log(f"step {step}/{manifest.target_steps} loss={loss:.4f}")

        def on_started(step, now):
            write_learner_status(mount, ordinal, PROCESSING, step, now)
            platform.tracer.emit(f"learner-{ordinal}", "component-ready",
                                 job=job_id, resumed_step=step)
            log(f"training active from step {step}")

        training = TrainingRun(
            kernel,
            workload_config_for(manifest),
            DLAAS,
            target_steps=manifest.target_steps,
            checkpoint_policy=CheckpointPolicy(interval=manifest.checkpoint_interval),
            checkpoint_store=checkpoints,
            progress_callback=on_progress,
            progress_every=PROGRESS_EVERY,
            on_started=on_started,
        )

        # A fault the operator armed on this learner: train to its step,
        # then hang (no status update, no exit code, no crash) or exit 1.
        pod_name = layout.learner_pod_name(job_id, ordinal)
        fault = platform.faults.armed.get(pod_name)
        if fault is not None:
            kind, at = fault
            training.target_steps = min(training.target_steps, at)
        exit_code = yield from training.run(stop_event=ctx.stop_event)
        if fault is not None and exit_code == 0 and training.step >= at:
            platform.faults.fired(pod_name)
            if kind == "hang":
                log(f"learner-{ordinal} hanging at step {training.step}")
                yield ctx.stop_event  # wedged until killed
                span.end("error")
                return 143
            exit_code = 1

        if exit_code == 0:
            final = COMPLETED
        elif exit_code == 143:
            final = HALTED
        else:
            final = FAILED
        final_loss = synthetic_loss(manifest.learning_rate, training.step)
        write_learner_status(mount, ordinal, final, training.step, kernel.now,
                             loss=final_loss)
        mount.write_file(layout.learner_exit_file(ordinal), str(exit_code))
        platform.tracer.emit(f"learner-{ordinal}", "learner-exit", job=job_id,
                             exit_code=exit_code, step=training.step)
        log(f"learner-{ordinal} exiting with code {exit_code}")
        span.end("ok" if exit_code == 0 else "error")
        return exit_code

    return workload

