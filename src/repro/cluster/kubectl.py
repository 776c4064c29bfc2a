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

    def get_pods(self, selector=None):
        return self.api.list("Pod", selector=selector)

    def get_pod(self, name):
        return self.api.get("Pod", name)

    # ------------------------------------------------------------------
    # Pod destruction (the Fig. 4 crash hammer)
    # ------------------------------------------------------------------

    def delete_pod(self, name, force=False):
        """``kubectl delete pod``; ``force`` is --grace-period=0."""
        pod = self.api.get("Pod", name)
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
                if self.api.exists("Pod", name):
                    self.api.delete("Pod", name)
        return pod

    def crash_container(self, pod_name, container_name):
        """Kill one container process in place (restart policy applies)."""
        pod = self.api.get("Pod", pod_name)
        kubelet = self.cluster.kubelet_for(pod.node_name)
        if kubelet is None or not kubelet.alive:
            raise NotFoundError(f"no live kubelet for pod {pod_name}")
        return kubelet.crash_container(pod, container_name)
