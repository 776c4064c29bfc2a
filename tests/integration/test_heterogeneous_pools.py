"""Heterogeneous GPU pools: K80 and P100 jobs on one platform."""

from .conftest import make_platform, manifest


class TestHeterogeneousPools:
    def make_mixed_platform(self):
        # 2 K80 nodes plus a pool of 2 P100 nodes.
        platform = make_platform(gpu_nodes=2, gpus_per_node=4, gpu_type="k80")
        for i in range(2):
            platform.k8s.add_node(f"p100-pcie-{i}", gpus=2,
                                  gpu_type="p100-pcie", labels={"pool": "gpu"})
        return platform

    def test_jobs_land_on_matching_gpu_type(self):
        platform = self.make_mixed_platform()
        client = platform.client("team")

        def scenario():
            k80_job = yield from client.submit(manifest(
                name="on-k80", gpu_type="k80", target_steps=5000))
            p100_job = yield from client.submit(manifest(
                name="on-p100", gpu_type="p100-pcie", target_steps=5000))
            for job in (k80_job, p100_job):
                yield from client.wait_for_status(job, statuses={"PROCESSING"},
                                                  timeout=2000)
            return k80_job, p100_job

        k80_job, p100_job = platform.run_process(scenario(), limit=10_000)
        k80_pod = platform.k8s.kubectl.get_pod(f"{k80_job}-learner-0")
        p100_pod = platform.k8s.kubectl.get_pod(f"{p100_job}-learner-0")
        assert k80_pod.node_name.startswith("gpu-")
        assert p100_pod.node_name.startswith("p100-pcie-")

    def test_p100_trains_faster_than_k80(self):
        platform = self.make_mixed_platform()
        client = platform.client("team")

        def run(gpu_type):
            def scenario():
                job_id, doc = yield from client.run_to_completion(
                    manifest(name=f"race-{gpu_type}", gpu_type=gpu_type,
                             target_steps=100, checkpoint_interval=0.0))
                history = {h["status"]: h["time"] for h in doc["status_history"]}
                return history["STORING"] - history["PROCESSING"]

            return platform.run_process(scenario(), limit=100_000)

        k80_seconds = run("k80")
        p100_seconds = run("p100-pcie")
        assert p100_seconds < k80_seconds / 2  # ~4x sustained TFLOPS gap

    def test_pool_exhaustion_does_not_spill(self):
        # P100 demand beyond the P100 pool queues; it never lands on K80.
        platform = self.make_mixed_platform()
        client = platform.client("team")

        def scenario():
            ids = []
            for i in range(4):  # 4 x 2-GPU jobs vs 4 P100 GPUs
                ids.append((yield from client.submit(manifest(
                    name=f"p100-{i}", gpu_type="p100-pcie",
                    gpus_per_learner=2, target_steps=5000))))
            yield platform.kernel.sleep(40.0)
            return ids

        platform.run_process(scenario(), limit=10_000)
        for pod in platform.k8s.kubectl.get_pods(selector={"role": "learner"}):
            if pod.node_name is not None:
                assert pod.node_name.startswith("p100-pcie-")
