"""The kubelet: runs pods on one node.

Provisions volumes, pulls images, starts container workloads as kernel
processes, enforces restart policies with crash-loop backoff, reports
pod phase, and heartbeats node liveness. Crashing the kubelet's node
kills every container on it instantly and silently — detection is the
node controller's job, exactly as in the real system.
"""

from ..sim.errors import ProcessKilled
from ..sim.periodic import Periodic
from .resources.pod import (
    FAILED,
    RESTART_ALWAYS,
    RESTART_NEVER,
    RESTART_ON_FAILURE,
    RUNNING,
    SUCCEEDED,
)

KILLED_EXIT_CODE = 137

# Kubelet timings, simulated seconds.
SYNC_INTERVAL = 0.1
HEARTBEAT_INTERVAL = 0.5
CONTAINER_START_OVERHEAD = 0.4
VOLUME_BIND_TIME = 0.8
PVC_WAIT_INTERVAL = 0.1
TERMINATION_GRACE = 0.5  # between a pod's stop signal and its SIGKILL


class KubeletConfig:
    """The crash-loop backoff bounds, simulated seconds."""

    def __init__(self, restart_backoff_base=0.2, restart_backoff_max=10.0):
        self.restart_backoff_base = restart_backoff_base
        self.restart_backoff_max = restart_backoff_max


class ContainerContext:
    """What a container workload sees: its little world."""

    def __init__(self, kernel, pod, container, node_name, mounts, log_sink):
        self.kernel = kernel
        self.pod = pod
        self.container = container
        self.node_name = node_name
        self.mounts = mounts
        self.env = dict(container.env)
        self.stop_event = kernel.event(name=f"stop:{pod.metadata.name}/{container.name}")
        self._log_sink = log_sink

    @property
    def stopping(self):
        return self.stop_event.triggered

    def log(self, line):
        self._log_sink(self.kernel.now, line)


def release_pod_resources(api, pod):
    """Give the pod's node back its resources; idempotent."""
    if getattr(pod, "_resources_released", False) or pod.node_name is None:
        return
    pod._resources_released = True
    node = api.get_or_none("Node", pod.node_name, namespace="")
    if node is not None:
        node.release(pod.spec)


class Kubelet:
    """Node agent: one per cluster node."""

    def __init__(self, kernel, api, node, nfs_server, registry, cluster,
                 config=None):
        self.kernel = kernel
        self.api = api
        self.node = node
        self.nfs = nfs_server
        self.registry = registry
        self.cluster = cluster  # for the shared container-log sink
        self.config = config or KubeletConfig()
        self.alive = False
        # Spawned through the kubelet like everything else on the node:
        # in ``_procs``, with its done-callback, as a pod worker is.
        self._loops = (
            Periodic(kernel, "heartbeat", self._heartbeat,
                     HEARTBEAT_INTERVAL, spawn=self._spawn),
            Periodic(kernel, "sync", self.sync_once, SYNC_INTERVAL,
                     spawn=self._spawn),
        )
        self._procs = set()
        self._pod_workers = {}  # pod uid -> worker process
        self._container_procs = {}  # (pod uid, container) -> (process, ctx)
        self._supervisors = {}  # (pod uid, container) -> supervisor process
        self._terminating = set()  # pod uids with an active terminate process

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self):
        if self.alive:
            return self
        self.alive = True
        self.node.last_heartbeat = self.kernel.now
        for loop in self._loops:
            loop.start()
        return self

    def crash(self):
        """The machine dies: every container and loop stops instantly."""
        if not self.alive:
            return self
        self.alive = False
        reason = f"node {self.node.metadata.name} crashed"
        for loop in self._loops:
            loop.stop(reason)
        procs, self._procs = self._procs, set()
        for proc in procs:
            proc.kill(reason)
        self._pod_workers.clear()
        self._container_procs.clear()
        self._supervisors.clear()
        self._terminating.clear()
        return self

    restart = start

    def _spawn(self, generator, label):
        process = self.kernel.spawn(
            generator, name=f"kubelet:{self.node.metadata.name}:{label}"
        )
        self._procs.add(process)
        process.add_callback(lambda _ev: self._procs.discard(process))
        return process

    # ------------------------------------------------------------------
    # Loop bodies
    # ------------------------------------------------------------------

    def _heartbeat(self):
        self.node.last_heartbeat = self.kernel.now

    def sync_once(self):
        for pod in self.api.list("Pod", node_name=self.node.metadata.name):
            uid = pod.metadata.uid
            if pod.deletion_requested:
                if uid in self._terminating:
                    continue
                if uid in self._pod_workers:
                    self._terminating.add(uid)
                    self._spawn(self._terminate_pod(pod, graceful=True),
                                f"terminate:{pod.metadata.name}")
                else:
                    self._finalize_deletion(pod)
                continue
            if pod.is_terminal():
                continue
            if uid not in self._pod_workers:
                worker = self._spawn(self._run_pod(pod), f"pod:{pod.metadata.name}")
                self._pod_workers[uid] = worker

    # ------------------------------------------------------------------
    # Pod execution
    # ------------------------------------------------------------------

    def _run_pod(self, pod):
        uid = pod.metadata.uid
        try:
            mounts = yield from self._provision_volumes(pod)
            if mounts is None:
                return  # pod deleted while waiting on PVCs
            pull_procs = [
                self._spawn(self.registry.pull(self.node.metadata.name, c.image),
                            f"pull:{c.image}")
                for c in pod.spec.containers
            ]
            yield self.kernel.all_of(pull_procs)
            yield self.kernel.sleep(CONTAINER_START_OVERHEAD)

            supervisors = []
            for container in pod.spec.containers:
                supervisor = self._spawn(
                    self._container_supervisor(pod, container, mounts),
                    f"ctr:{pod.metadata.name}/{container.name}",
                )
                self._supervisors[(uid, container.name)] = supervisor
                supervisors.append(supervisor)

            pod.phase = RUNNING
            pod.start_time = self.kernel.now
            self._safe_update(pod)
            self.api.record_event("Pod", pod.metadata.name, "Started",
                                  f"on {self.node.metadata.name}")

            exit_codes = yield self.kernel.all_of(supervisors)
            # Only reached when every container reached a terminal state
            # under its restart policy.
            pod.phase = SUCCEEDED if all(code == 0 for code in exit_codes) else FAILED
            pod.finish_time = self.kernel.now
            release_pod_resources(self.api, pod)
            self._safe_update(pod)
            self.api.record_event("Pod", pod.metadata.name, pod.phase)
        finally:
            self._pod_workers.pop(uid, None)

    def _provision_volumes(self, pod):
        mounts = {}
        for logical_name, claim_name in pod.spec.volumes.items():
            while True:
                if pod.deletion_requested:
                    return None
                pvc = self.api.get_or_none(
                    "PersistentVolumeClaim", claim_name, pod.metadata.namespace
                )
                if pvc is not None and pvc.bound:
                    break
                yield self.kernel.sleep(PVC_WAIT_INTERVAL)
            yield self.kernel.sleep(VOLUME_BIND_TIME)
            mounts[logical_name] = self.nfs.mount(pvc.bound_volume)
        return mounts

    def _container_supervisor(self, pod, container, mounts):
        status = pod.container_statuses[container.name]
        backoff = self.config.restart_backoff_base
        while True:
            ctx = ContainerContext(
                self.kernel, pod, container, self.node.metadata.name, mounts,
                self.cluster.log_sink(pod, container.name),
            )
            status.state = "running"
            status.started_at = self.kernel.now
            status.exit_code = None
            run = self.kernel.spawn(
                self._run_workload(container, ctx),
                name=f"workload:{pod.metadata.name}/{container.name}",
            )
            key = (pod.metadata.uid, container.name)
            self._container_procs[key] = (run, ctx)
            self._procs.add(run)
            run.add_callback(lambda _ev, p=run: self._procs.discard(p))
            try:
                exit_code = yield run
            except ProcessKilled:
                exit_code = KILLED_EXIT_CODE
            finally:
                self._container_procs.pop(key, None)
            status.state = "terminated"
            status.exit_code = exit_code
            status.finished_at = self.kernel.now

            # No restarts for a pod being torn down or a dead node;
            # without this check, catching ProcessKilled above would
            # resurrect containers that were deliberately killed.
            if not self.alive or pod.deletion_requested:
                self._supervisors.pop(key, None)
                return exit_code

            policy = pod.spec.restart_policy
            if policy == RESTART_NEVER:
                self._supervisors.pop(key, None)
                return exit_code
            if policy == RESTART_ON_FAILURE and exit_code == 0:
                self._supervisors.pop(key, None)
                return 0
            # Restart (Always, or OnFailure after a failure).
            status.restart_count += 1
            self.api.record_event("Pod", pod.metadata.name, "ContainerRestart",
                                  f"{container.name} exited {exit_code}")
            if self.cluster.events is not None and exit_code != 0:
                # Crash-looping containers deduplicate into one record
                # with a rising count (the helper/learner exit path).
                self.cluster.events.emit_event(
                    "Warning", "ContainerRestarted", "Pod", pod.metadata.name,
                    message=f"{container.name} exited {exit_code}",
                    job=pod.metadata.labels.get("dlaas-job"))
            if exit_code == 0 and policy == RESTART_ALWAYS:
                yield self.kernel.sleep(self.config.restart_backoff_base)
                backoff = self.config.restart_backoff_base
            else:
                yield self.kernel.sleep(backoff)
                backoff = min(backoff * 2, self.config.restart_backoff_max)

    def _run_workload(self, container, ctx):
        if container.workload is None:
            yield self.kernel.event()  # pause container: runs until killed
            return 0
        try:
            result = yield from container.workload(ctx)
        except ProcessKilled:
            raise
        except Exception as exc:
            ctx.log(f"container crashed: {exc!r}")
            return 1
        if result is None:
            return 0
        return int(result)

    # ------------------------------------------------------------------
    # Termination
    # ------------------------------------------------------------------

    def _terminate_pod(self, pod, graceful):
        uid = pod.metadata.uid
        try:
            if graceful:
                for (pod_uid, _name), (_proc, ctx) in list(self._container_procs.items()):
                    if pod_uid == uid and not ctx.stop_event.triggered:
                        ctx.stop_event.succeed()
                yield self.kernel.sleep(TERMINATION_GRACE)
            self.kill_pod_containers(pod)
            self._finalize_deletion(pod)
        finally:
            self._terminating.discard(uid)
        return None

    def kill_pod_containers(self, pod):
        """SIGKILL every process belonging to ``pod`` (force/crash path)."""
        uid = pod.metadata.uid
        worker = self._pod_workers.pop(uid, None)
        if worker is not None:
            worker.kill("pod terminated")
        for (pod_uid, name), supervisor in list(self._supervisors.items()):
            if pod_uid == uid:
                supervisor.kill("pod terminated")
                self._supervisors.pop((pod_uid, name), None)
        for (pod_uid, name), (proc, _ctx) in list(self._container_procs.items()):
            if pod_uid == uid:
                proc.kill("pod terminated")
                self._container_procs.pop((pod_uid, name), None)
                status = pod.container_statuses[name]
                status.state = "terminated"
                status.exit_code = KILLED_EXIT_CODE
                status.finished_at = self.kernel.now

    def crash_container(self, pod, container_name):
        """Kill one container's process; the supervisor restarts it per
        policy. This is the fault-injection primitive behind Fig. 4."""
        entry = self._container_procs.get((pod.metadata.uid, container_name))
        if entry is None:
            return False
        process, _ctx = entry
        process.kill("injected container crash")
        return True

    def _finalize_deletion(self, pod):
        release_pod_resources(self.api, pod)
        if self.api.exists("Pod", pod.metadata.name, pod.metadata.namespace):
            self.api.delete("Pod", pod.metadata.name, pod.metadata.namespace)

    def _safe_update(self, pod):
        if self.api.exists("Pod", pod.metadata.name, pod.metadata.namespace):
            self.api.update(pod)

    def has_worker_for(self, pod):
        return pod.metadata.uid in self._pod_workers
