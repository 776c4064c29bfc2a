"""Gang scheduling tests: all-or-nothing placement of distributed jobs."""

from repro.cluster import (
    ContainerSpec,
    Pod,
    PodSpec,
    RESTART_NEVER,
)
from repro.cluster.errors import InvalidResource
from repro.sim import Kernel

from ..observers import kubernetes

import pytest


def gang_pod(name, gang, size, gpus=1):
    spec = PodSpec(
        containers=[ContainerSpec("c", "tiny", gpus=gpus)],
        restart_policy=RESTART_NEVER,
        gpu_type="k80",
        gang=gang,
        gang_size=size,
    )
    return Pod(name, spec)


def single_pod(name, gpus=1):
    spec = PodSpec(
        containers=[ContainerSpec("c", "tiny", gpus=gpus)],
        restart_policy=RESTART_NEVER,
        gpu_type="k80",
    )
    return Pod(name, spec)


class TestGangValidation:
    def test_gang_needs_size(self):
        with pytest.raises(InvalidResource):
            PodSpec(containers=[ContainerSpec("c", "i")], gang="g", gang_size=1)


class TestGangPlacement:
    def test_full_gang_placed_together(self, kernel, cluster):
        # 3 nodes x 4 GPUs; a gang of 6 one-GPU pods fits across nodes.
        for i in range(6):
            cluster.api.create(gang_pod(f"g-{i}", "job-a", 6))
        cluster.scheduler.schedule_once()
        pods = cluster.kubectl.get_pods()
        assert all(p.node_name is not None for p in pods)

    def test_oversized_gang_binds_nothing(self, kernel, cluster):
        # 13 GPUs needed, 12 available: no member may bind.
        for i in range(13):
            cluster.api.create(gang_pod(f"g-{i}", "job-a", 13))
        cluster.scheduler.schedule_once()
        pods = cluster.kubectl.get_pods()
        assert all(p.node_name is None for p in pods)
        assert cluster.capacity_summary()["gpus_allocated"] == 0

    def test_interleaved_gangs_do_not_deadlock(self, kernel, cluster):
        # Two gangs of 8 on 12 GPUs, members interleaved in creation
        # order. Without atomicity each would grab ~6 and deadlock;
        # with it, exactly one gang binds fully.
        for i in range(8):
            cluster.api.create(gang_pod(f"a-{i}", "job-a", 8))
            cluster.api.create(gang_pod(f"b-{i}", "job-b", 8))
        cluster.scheduler.schedule_once()
        bound_a = sum(1 for p in cluster.kubectl.get_pods()
                      if p.metadata.name.startswith("a-") and p.node_name)
        bound_b = sum(1 for p in cluster.kubectl.get_pods()
                      if p.metadata.name.startswith("b-") and p.node_name)
        assert sorted((bound_a, bound_b)) == [0, 8]

    def test_second_gang_binds_when_capacity_frees(self, kernel, cluster):
        def quick(ctx):
            yield ctx.kernel.sleep(2.0)
            return 0

        for i in range(8):
            spec = PodSpec(
                containers=[ContainerSpec("c", "tiny", workload=quick, gpus=1)],
                restart_policy=RESTART_NEVER, gpu_type="k80",
                gang="job-a", gang_size=8,
            )
            cluster.api.create(Pod(f"a-{i}", spec))
            cluster.api.create(gang_pod(f"b-{i}", "job-b", 8))
        kernel.run(until=30.0)
        bound_b = sum(1 for p in cluster.kubectl.get_pods()
                      if p.metadata.name.startswith("b-") and p.node_name)
        assert bound_b == 8

    def test_partial_gang_reschedules_individually(self, kernel, cluster):
        # A lone pending gang member (a crash replacement, the rest of
        # the gang running) binds without waiting for a full gang.
        lone = gang_pod("replacement-3", "job-a", 8)
        cluster.api.create(lone)
        cluster.scheduler.schedule_once()
        assert lone.node_name is not None

    def test_gang_failure_does_not_block_singles(self, kernel, cluster):
        for i in range(13):
            cluster.api.create(gang_pod(f"g-{i}", "big", 13))
        small = single_pod("small")
        cluster.api.create(small)
        cluster.scheduler.schedule_once()
        assert small.node_name is not None

    def test_gang_members_may_span_nodes(self, kernel, cluster):
        # 3 nodes x 4 GPUs: a gang of 3 four-GPU pods takes one node each.
        for i in range(3):
            cluster.api.create(gang_pod(f"g-{i}", "span", 3, gpus=4))
        cluster.scheduler.schedule_once()
        nodes = {p.node_name for p in cluster.kubectl.get_pods()}
        assert len(nodes) == 3


class TestCrossJobDeadlock:
    @staticmethod
    def queue_second_job(gang):
        """One 4-GPU node running job A's three learners; job B's three
        are queued. Returns how many of B's learners bound."""
        kernel = Kernel(seed=11)
        cluster = kubernetes(kernel)
        cluster.registry.register("tiny", 10)
        cluster.add_node("node-0", gpus=4, gpu_type="k80")
        cluster.start()
        for i in range(3):
            cluster.api.create(single_pod(f"a-{i}"))
        cluster.scheduler.schedule_once()
        for i in range(3):
            cluster.api.create(gang_pod(f"b-{i}", gang, 3 if gang else 0))
        cluster.scheduler.schedule_once()
        return sum(1 for p in cluster.kubectl.get_pods()
                   if p.metadata.name.startswith("b-") and p.node_name)

    def test_only_a_gang_leaves_the_last_gpu_free(self):
        # Pod by pod, B's first learner takes the last GPU and waits at
        # the MPI barrier for two that never bind: the GPU a crashed
        # A learner's replacement needs is gone, and neither job ends.
        assert self.queue_second_job(gang=None) == 1
        # As a gang, B binds nothing until all three fit.
        assert self.queue_second_job(gang="job-b") == 0
