"""The helper-pod containers (paper §III.e–f).

For each DL job the Guardian creates one helper pod with four
containers — load-data, controller, log-collector, store-results —
isolated from the learner pods but sharing the job's NFS volume:

* **load-data** stages the training data from the object store onto NFS;
* **controller** watches learner exit/status files on NFS and records
  per-learner statuses in ETCD (the reliable status-update pipeline);
* **log-collector** tails learner logs into a combined job log;
* **store-results** uploads results and logs to the object store when
  triggered.

Each is restartable and stateless: its working state is derived from
NFS (and ETCD), which is what makes controller crashes harmless.
"""

import json

from ..nfs.errors import FsError
from ..raftkv import EtcdClient
from ..sim import Reconciler, WatchSource
from . import layout
from .fswatch import wait_for_file
from .learner import read_learner_status
from .states import COMPLETED, FAILED, HALTED, STALLED

HELPER_RUNNING = "RUNNING"
HELPER_DONE = "DONE"

HELPER_INIT_TIME = 1.8  # container boot (drives the Fig. 4 recovery band)
CONTROLLER_POLL = 0.5  # progress coalescing window; STALLED re-report cadence
CONTROLLER_RESYNC = 10.0  # level-triggered relist behind the NFS notifications
LOG_COLLECT_INTERVAL = 1.0  # log-collector resync behind the subscription
# Hang detection (extension): a PROCESSING learner whose status file has
# not changed for this long is reported STALLED.
STALL_TIMEOUT = 90.0


def _idle_until_stopped(ctx):
    """Sidecar idiom: stay alive so restart policy Always is a no-op."""
    yield ctx.stop_event
    return 0




# ---------------------------------------------------------------------------
# load-data
# ---------------------------------------------------------------------------


def make_load_data_workload(platform, job_id, manifest):
    def workload(ctx):
        kernel = ctx.kernel
        mount = ctx.mounts["job"]
        if mount.exists(layout.DATA_READY):
            # A previous incarnation finished; do not re-download.
            yield from _idle_until_stopped(ctx)
            return 0
        mount.write_file("/helper/load-data.status", HELPER_RUNNING)
        yield from platform.object_store.download(
            manifest.data.bucket, "dataset", manifest.data.credentials
        )
        mount.mkdir(layout.DATA_DIR)
        mount.write_file(f"{layout.DATA_DIR}/manifest.json",
                         json.dumps({"size_mb": manifest.dataset_size_mb}))
        mount.write_file(layout.DATA_READY, "ok")
        mount.write_file("/helper/load-data.status", HELPER_DONE)
        yield from _idle_until_stopped(ctx)
        return 0

    return workload


# ---------------------------------------------------------------------------
# controller
# ---------------------------------------------------------------------------


def make_controller_workload(platform, job_id, manifest):
    """Event-driven controller: NFS change notifications feed a work
    queue; each reconcile re-reads the file state for one key (learner
    ordinal or helper name) and publishes it to ETCD when it differs
    from what this incarnation last published; a report carries the
    learner's clock, so unchanged files publish nothing. A hang
    produces *no* events, so the pass over a ``PROCESSING`` learner
    asks to be run again at its stall deadline. ``CONTROLLER_RESYNC``
    is the level-triggered safety net behind both; nothing rides on
    its cadence."""

    def workload(ctx):
        kernel = ctx.kernel
        mount = ctx.mounts["job"]
        # Agent/runtime initialization inside the helper container.
        yield kernel.sleep(HELPER_INIT_TIME)
        etcd = EtcdClient(kernel, platform.network, platform.etcd,
                          client_id=f"controller-{job_id}-{ctx.pod.metadata.uid}",
                          history=platform.history)
        platform.tracer.emit("controller", "component-ready", job=job_id)
        span = platform.tracer.start_span(
            "controller.run", component="controller",
            parent=platform.tracer.context_of(("job-run", job_id)), job=job_id)
        last_reported = {}
        # Hang detection state: per-learner (status-file content, time it
        # last changed). Rebuilt from scratch after a controller restart
        # — worst case the stall clock restarts, which only delays
        # detection by one timeout.
        freshness = {}
        learner_keys = [f"learner-{i}" for i in range(manifest.learners)]
        all_keys = learner_keys + ["load-data", "store-results", "store-trigger"]

        def reconcile(key):
            if key == "store-trigger":
                # Trigger store-results once every learner completed.
                if not mount.exists(layout.CONTROL_STORE_TRIGGER):
                    exits = [_exit_code(mount, i) for i in range(manifest.learners)]
                    if all(code == 0 for code in exits):
                        mount.write_file(layout.CONTROL_STORE_TRIGGER, "go")
                return
            if key.startswith("learner-"):
                # Learner statuses: NFS -> ETCD. State is recomputed from
                # NFS on every pass, so a restarted controller (or a
                # duplicate event) loses and corrupts nothing.
                ordinal = int(key.rsplit("-", 1)[1])
                report = _learner_report(mount, ordinal)
                if report is None:
                    return
                report, recheck_in = _apply_stall_detection(
                    report, ordinal, freshness, kernel.now, STALL_TIMEOUT
                )
                if last_reported.get(ordinal) != report:
                    yield from etcd.put(
                        layout.learner_status_key(job_id, ordinal), report
                    )
                    previous = last_reported.get(ordinal)
                    last_reported[ordinal] = report
                    status_now = report.get("status")
                    if status_now != (previous or {}).get("status"):
                        pod_name = layout.learner_pod_name(job_id, ordinal)
                        if status_now == FAILED:
                            platform.events.emit_event(
                                "Warning", "LearnerFailed", "Pod", pod_name,
                                message=f"exit code {report.get('exit_code')}",
                                job=job_id)
                        elif status_now == COMPLETED:
                            platform.events.emit_event(
                                "Normal", "LearnerCompleted", "Pod", pod_name,
                                message=f"finished at step {report.get('step')}",
                                job=job_id)
                return recheck_in
            # Helper statuses.
            path = f"/helper/{key}.status"
            if mount.exists(path):
                value = mount.read_file(path)
                if last_reported.get(key) != value:
                    yield from etcd.put(
                        layout.helper_status_key(job_id, key), value
                    )
                    last_reported[key] = value
                    if value == HELPER_DONE and key == "load-data":
                        platform.events.emit_event(
                            "Normal", "DataStaged", "Job", job_id,
                            message="training data staged onto NFS",
                            job=job_id)
                    elif value == HELPER_DONE and key == "store-results":
                        platform.events.emit_event(
                            "Normal", "ResultsStored", "Job", job_id,
                            message="model and logs uploaded", job=job_id)

        reconciler = Reconciler(
            kernel, f"controller:{job_id}", reconcile,
            resync_interval=CONTROLLER_RESYNC,
            tracer=platform.tracer,
            metrics=platform.metrics, kind="controller",
        )
        for key in all_keys:
            reconciler.add_static_key(key)
        reconciler.add_source(_nfs_source(mount, kernel))
        reconciler.start()
        try:
            yield ctx.stop_event
        finally:
            reconciler.stop()
            span.end("ok")
        return 0

    return workload


def _nfs_source(mount, kernel):
    """NFS change notifications -> controller work keys.

    Exit-code and helper-status writes are transitions (§III.e failure
    detection) and dispatch immediately. Learner status-file writes are
    progress, dispatched on the leading edge: the first write after a
    quiet ``CONTROLLER_POLL`` dispatches at once and later ones inside
    the window coalesce to its end, so a phase change is published
    when it happens and a fast learner costs at most one ETCD put per
    window. Other files in a learner's directory (its log, the MPI
    ``joined`` marker) are not status.
    """
    due = {}  # learner key -> when its latest progress dispatch is (or was) due

    def classify(path):
        if path.startswith("/helper/"):
            name = path.rsplit("/", 1)[1].removesuffix(".status")
            return [name] if name in ("load-data", "store-results") else []
        if path.startswith("/learners/learner-"):
            directory, _, leaf = path.removeprefix("/learners/").partition("/")
            key = f"learner-{directory.rsplit('-', 1)[1]}"
            if leaf == "exit-code":
                return [key, "store-trigger"]
            if leaf == "status":
                now = kernel.now
                at = due.get(key, now - CONTROLLER_POLL)
                if at <= now:  # no dispatch pending: open a new window
                    at = due[key] = max(now, at + CONTROLLER_POLL)
                # Inside a window the write rides its trailing edge; the
                # queue coalesces the repeat unless an earlier pass (the
                # stall re-check) already consumed that timer.
                return [(key, at - now)]
        return []

    return _MountNotifySource(mount, classify)


class _MountNotifySource(WatchSource):
    """Callback-based watch source over an NFS mount.

    The filesystem invokes the callback synchronously on writes; the
    source enqueues directly into the reconciler's queue (bound at
    subscribe time), so there is no channel and nothing to pump.
    """

    def __init__(self, mount, classify):
        super().__init__("nfs")
        self._mount = mount
        self._classify = classify
        self._queue = None
        self._subscription = None

    def bind(self, queue):
        self._queue = queue

    def subscribe(self):
        if self._subscription is None or not self._subscription.active:
            self._subscription = self._mount.subscribe("/", self._on_change)
        return None  # no channel: delivery is callback-driven

    def _on_change(self, path):
        if self._queue is None:
            return
        for key in self._classify(path):
            if isinstance(key, tuple):
                self._queue.add_after(*key)
            else:
                self._queue.add(key)

    def unsubscribe(self):
        subscription, self._subscription = self._subscription, None
        if subscription is not None:
            subscription.cancel()


def _apply_stall_detection(report, ordinal, freshness, now, stall_timeout):
    """Flag a PROCESSING learner whose progress has frozen (extension).

    The paper's §III.e detects *orderly* failures (exit codes) and lets
    Kubernetes handle crashes, but a learner that hangs — alive yet
    making no progress — produces neither signal. The controller tracks
    when each learner's reported (status, step) last changed and
    reports STALLED once it exceeds the timeout; the Guardian restarts
    stalled learners.

    Returns ``(report, recheck_in)``: a hang emits no event, so the
    caller re-runs the pass at the stall deadline (``recheck_in``
    seconds away), and every ``CONTROLLER_POLL`` while stalled — the
    growing ``stalled_for`` re-put is what lets the Guardian retry a
    restart once its cooldown has passed.
    """
    fingerprint = (report.get("status"), report.get("step"))
    seen_fingerprint, since = freshness.get(ordinal, (None, now))
    if fingerprint != seen_fingerprint:
        since = now
        freshness[ordinal] = (fingerprint, since)
    if report.get("status") != "PROCESSING":
        return report, None
    deadline = since + stall_timeout
    if now < deadline:
        return report, deadline - now
    stalled = dict(report)
    stalled["status"] = STALLED
    stalled["stalled_for"] = now - since
    return stalled, CONTROLLER_POLL


def _exit_code(mount, ordinal):
    path = layout.learner_exit_file(ordinal)
    if not mount.exists(path):
        return None
    try:
        return int(mount.read_file(path).strip())
    except ValueError:
        return None


def _learner_report(mount, ordinal):
    """Derive the learner's reported status from its NFS files.

    An orderly exit code takes precedence over the (possibly stale)
    status file — this is the §III.e failure-detection rule. ``time``
    is the learner's clock (when it last wrote its status; the exit
    file's mtime without one), never the reader's: unchanged files
    yield an equal report.
    """
    exit_code = _exit_code(mount, ordinal)
    status = read_learner_status(mount, ordinal)
    if exit_code is not None:
        if exit_code == 0:
            phase = COMPLETED
        elif exit_code == 143:
            phase = HALTED
        else:
            phase = FAILED
        report = {
            "status": phase,
            "step": status.get("step", 0) if status else 0,
            "exit_code": exit_code,
            "time": status["time"] if status
            else mount.mtime(layout.learner_exit_file(ordinal)),
        }
        if status and "loss" in status:
            report["loss"] = status["loss"]
        return report
    if status is None:
        return None
    report = {"status": status["status"], "step": status["step"],
              "time": status["time"]}
    if "loss" in status:
        report["loss"] = status["loss"]
    return report


# ---------------------------------------------------------------------------
# log-collector
# ---------------------------------------------------------------------------


def make_log_collector_workload(platform, job_id, manifest):
    def workload(ctx):
        kernel = ctx.kernel
        mount = ctx.mounts["job"]
        offsets = {}
        # Static metric name, dynamic dimension in the label: per-job
        # names would grow the series namespace without bound.
        family = platform.metrics.counter(
            "logs_collected_lines_total", ("job",),
            help="Learner log lines folded into the combined job log",
        )
        collected = family.labels(job=job_id)

        def collect():
            for ordinal in range(manifest.learners):
                path = layout.learner_log_file(ordinal)
                if not mount.exists(path):
                    continue
                fresh = mount.read_from(path, offsets.get(ordinal, 0))
                if fresh:
                    offsets[ordinal] = offsets.get(ordinal, 0) + len(fresh)
                    for line in fresh.splitlines():
                        mount.append_line(layout.COMBINED_LOG,
                                          f"learner-{ordinal}| {line}")
                        collected.inc()

        def on_log_write(path):
            # Synchronous tail-on-write: the combined log is current the
            # instant a learner writes, so store-results (triggered the
            # moment the last exit code lands) archives a complete log.
            if path.endswith("/training.log"):
                try:
                    collect()
                except FsError:
                    pass

        subscription = mount.subscribe("/learners/", on_log_write)
        try:
            # The interval loop survives as the level-triggered resync
            # behind the change subscription (e.g. a collector restarted
            # mid-job re-reads everything from its rebuilt offsets).
            while not ctx.stopping:
                collect()
                yield kernel.sleep(LOG_COLLECT_INTERVAL)
        finally:
            subscription.cancel()
            # Teardown can land mid-interval: flush the tail so the
            # learners' last lines survive into the combined log.
            try:
                collect()
            except FsError:
                pass  # NFS outage at teardown; nothing left to flush
            # The label lives as long as its collector: the series goes
            # stale and the scraper prunes it like a vanished endpoint.
            family.remove(job=job_id)
        return 0

    return workload


# ---------------------------------------------------------------------------
# store-results
# ---------------------------------------------------------------------------


def make_store_results_workload(platform, job_id, manifest):
    def workload(ctx):
        kernel = ctx.kernel
        mount = ctx.mounts["job"]
        if mount.exists(layout.CONTROL_STORE_DONE):
            yield from _idle_until_stopped(ctx)
            return 0
        # Wait for the controller's trigger.
        triggered = yield from wait_for_file(ctx, mount, layout.CONTROL_STORE_TRIGGER)
        if not triggered:
            return 0
        mount.write_file("/helper/store-results.status", HELPER_RUNNING)
        log_text = ""
        if mount.exists(layout.COMBINED_LOG):
            log_text = mount.read_file(layout.COMBINED_LOG)
        model_mb = platform.model_size_mb(manifest)
        yield from platform.object_store.upload(
            manifest.results.bucket, f"{job_id}/model",
            manifest.results.credentials, size=int(model_mb * 1_000_000),
        )
        yield from platform.object_store.upload(
            manifest.results.bucket, f"{job_id}/logs",
            manifest.results.credentials, size=len(log_text),
            payload={"text": log_text},
        )
        mount.write_file(layout.CONTROL_STORE_DONE, "ok")
        mount.write_file("/helper/store-results.status", HELPER_DONE)
        yield from _idle_until_stopped(ctx)
        return 0

    return workload
