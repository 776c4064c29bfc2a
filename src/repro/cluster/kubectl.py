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
