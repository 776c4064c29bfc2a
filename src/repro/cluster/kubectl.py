"""kubectl-style operational facade.

The paper's Fig. 4 methodology is "manually crashing various components
(using the kubectl tool of K8S) and measuring time taken for the
component to restart" — this module is that tool.
"""

from .errors import NotFoundError


class Kubectl:
    """Operator commands against the simulated cluster."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.api = cluster.api

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def get_pods(self, namespace="default", selector=None):
        return self.api.list("Pod", namespace=namespace, selector=selector)

    def get_pod(self, name, namespace="default"):
        return self.api.get("Pod", name, namespace)

    def get_nodes(self):
        return self.api.list("Node", namespace="")

    def get_events(self, kind=None, name=None):
        out = self.api.events
        if kind is not None:
            out = [e for e in out if e.kind == kind]
        if name is not None:
            out = [e for e in out if e.name == name]
        return out

    def logs(self, pod_name, container=None, namespace="default"):
        return self.cluster.container_logs_for(pod_name, container, namespace)

    def describe_pod(self, name, namespace="default"):
        """kubectl describe pod: spec, status and recent events as text."""
        pod = self.api.get("Pod", name, namespace)
        lines = [
            f"Name:         {pod.metadata.name}",
            f"Namespace:    {pod.metadata.namespace}",
            f"Labels:       {pod.metadata.labels}",
            f"Node:         {pod.node_name or '<unscheduled>'}",
            f"Phase:        {pod.phase}",
            f"Restarts:     {pod.restart_count}",
            "Containers:",
        ]
        for container in pod.spec.containers:
            status = pod.container_statuses[container.name]
            lines.append(
                f"  {container.name}: image={container.image} "
                f"gpus={container.gpus} state={status.state} "
                f"exit={status.exit_code} restarts={status.restart_count}"
            )
        events = self.get_events(kind="Pod", name=name)[-8:]
        if events:
            lines.append("Events:")
            for event in events:
                lines.append(f"  {event.time:9.2f}s  {event.reason}  {event.message}")
        return "\n".join(lines)

    def top_nodes(self):
        """kubectl top nodes: per-node allocation table as text."""
        lines = [f"{'NODE':<16} {'STATUS':<10} {'GPUS':>9} {'CPU(m)':>13} "
                 f"{'MEM(MB)':>15}"]
        for node in self.get_nodes():
            lines.append(
                f"{node.metadata.name:<16} {node.condition:<10} "
                f"{node.allocated_gpus:>4}/{node.capacity.gpus:<4} "
                f"{node.allocated_cpu:>6}/{node.capacity.cpu_millicores:<6} "
                f"{node.allocated_memory:>7}/{node.capacity.memory_mb:<7}"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Pod destruction (the Fig. 4 crash hammer)
    # ------------------------------------------------------------------

    def delete_pod(self, name, namespace="default", force=False):
        """``kubectl delete pod``; ``force`` is --grace-period=0."""
        pod = self.api.get("Pod", name, namespace)
        pod.deletion_requested = True
        self.api.update(pod)
        if force:
            kubelet = self.cluster.kubelet_for(pod.node_name)
            if kubelet is not None and kubelet.alive:
                kubelet.kill_pod_containers(pod)
                kubelet._finalize_deletion(pod)
            else:
                from .kubelet import release_pod_resources

                release_pod_resources(self.api, pod)
                if self.api.exists("Pod", name, namespace):
                    self.api.delete("Pod", name, namespace)
        return pod

    def crash_container(self, pod_name, container_name, namespace="default"):
        """Kill one container process in place (restart policy applies)."""
        pod = self.api.get("Pod", pod_name, namespace)
        kubelet = self.cluster.kubelet_for(pod.node_name)
        if kubelet is None or not kubelet.alive:
            raise NotFoundError(f"no live kubelet for pod {pod_name}")
        return kubelet.crash_container(pod, container_name)

    # ------------------------------------------------------------------
    # Node operations
    # ------------------------------------------------------------------

    def cordon(self, node_name):
        node = self.api.get("Node", node_name, namespace="")
        node.unschedulable = True
        self.api.update(node)

    def uncordon(self, node_name):
        node = self.api.get("Node", node_name, namespace="")
        node.unschedulable = False
        self.api.update(node)

    def drain(self, node_name):
        """Cordon plus graceful eviction of every pod on the node."""
        self.cordon(node_name)
        for pod in self.api.list("Pod", node_name=node_name):
            if not pod.is_terminal():
                pod.deletion_requested = True
                self.api.update(pod)
