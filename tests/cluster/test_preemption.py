"""Scheduler preemption tests."""

import random

from repro.cluster import (
    ContainerSpec,
    KubernetesCluster,
    Pod,
    PodSpec,
    RESTART_NEVER,
)
from repro.cluster.kubelet import release_pod_resources


def gpu_pod(name, gpus=2, priority=0, duration=1e6):
    def workload(ctx):
        yield ctx.kernel.sleep(duration)
        return 0

    spec = PodSpec(
        containers=[ContainerSpec("c", "tiny", workload=workload, gpus=gpus)],
        restart_policy=RESTART_NEVER,
        gpu_type="k80",
        priority=priority,
    )
    return Pod(name, spec)


def fill_cluster(cluster, priority=0):
    # 3 nodes x 4 GPUs: six 2-GPU pods fill everything.
    pods = [gpu_pod(f"low-{i}", priority=priority) for i in range(6)]
    for pod in pods:
        cluster.api.create(pod)
    return pods


class TestPreemption:
    def test_high_priority_evicts_lowest(self, kernel, cluster):
        fill_cluster(cluster, priority=10)
        kernel.run(until=3.0)
        urgent = gpu_pod("urgent", gpus=2, priority=90)
        cluster.api.create(urgent)
        kernel.run(until=10.0)
        assert urgent.node_name is not None
        events = [e for e in cluster.api.events if e.reason == "Preempted"]
        assert len(events) == 1

    def test_equal_priority_never_preempts(self, kernel, cluster):
        fill_cluster(cluster, priority=50)
        kernel.run(until=3.0)
        peer = gpu_pod("peer", gpus=2, priority=50)
        cluster.api.create(peer)
        kernel.run(until=10.0)
        assert peer.node_name is None
        assert not [e for e in cluster.api.events if e.reason == "Preempted"]

    def test_zero_priority_never_triggers_preemption(self, kernel, cluster):
        fill_cluster(cluster, priority=0)
        kernel.run(until=3.0)
        newcomer = gpu_pod("newcomer", gpus=2, priority=0)
        cluster.api.create(newcomer)
        kernel.run(until=10.0)
        assert newcomer.node_name is None

    def test_minimum_victims_chosen(self, kernel, cluster):
        # One node holds a single 4-GPU pod; others hold two 2-GPU pods
        # each. A 4-GPU urgent pod should evict the single big pod, not
        # two small ones.
        big = gpu_pod("big", gpus=4, priority=10)
        cluster.api.create(big)
        kernel.run(until=2.0)
        smalls = [gpu_pod(f"small-{i}", gpus=2, priority=10) for i in range(4)]
        for pod in smalls:
            cluster.api.create(pod)
        kernel.run(until=4.0)
        urgent = gpu_pod("urgent", gpus=4, priority=90)
        cluster.api.create(urgent)
        kernel.run(until=12.0)
        assert urgent.node_name is not None
        preempted = {e.name for e in cluster.api.events if e.reason == "Preempted"}
        assert preempted == {"big"}

    def test_preemption_disabled_flag(self, kernel, cluster):
        cluster.scheduler.preemption = False
        fill_cluster(cluster, priority=10)
        kernel.run(until=3.0)
        urgent = gpu_pod("urgent", gpus=2, priority=90)
        cluster.api.create(urgent)
        kernel.run(until=10.0)
        assert urgent.node_name is None

    def test_non_gpu_pods_are_never_victims(self, kernel, cluster):
        fill_cluster(cluster, priority=10)

        def forever(ctx):
            yield ctx.kernel.sleep(1e6)
            return 0

        sidecar_spec = PodSpec(
            containers=[ContainerSpec("c", "tiny", workload=forever)],
            restart_policy=RESTART_NEVER,
            priority=1,
        )
        cluster.api.create(Pod("cpu-sidecar", sidecar_spec))
        kernel.run(until=3.0)
        urgent = gpu_pod("urgent", gpus=2, priority=90)
        cluster.api.create(urgent)
        kernel.run(until=10.0)
        preempted = {e.name for e in cluster.api.events if e.reason == "Preempted"}
        assert "cpu-sidecar" not in preempted

    def test_impossible_demand_preempts_nothing(self, kernel, cluster):
        fill_cluster(cluster, priority=10)
        kernel.run(until=3.0)
        impossible = gpu_pod("impossible", gpus=8, priority=90)  # > any node
        cluster.api.create(impossible)
        kernel.run(until=10.0)
        assert impossible.node_name is None
        assert not [e for e in cluster.api.events if e.reason == "Preempted"]


def full_scan_victims(api, node, pod):
    """``Scheduler._victims_on`` as it was before the by-node index:
    one pass over every pod in the cluster."""
    residents = []
    terminating_gpus = 0
    for p in api.list("Pod"):
        if p.node_name != node.metadata.name or p.is_terminal():
            continue
        if p.deletion_requested:
            terminating_gpus += p.spec.total_gpus
        elif p.spec.priority < pod.spec.priority and p.spec.total_gpus > 0:
            residents.append(p)
    residents.sort(key=lambda p: (p.spec.priority, -p.spec.total_gpus))
    freed = node.free_gpus + terminating_gpus
    victims = []
    for resident in residents:
        if freed >= pod.spec.total_gpus:
            break
        victims.append(resident)
        freed += resident.spec.total_gpus
    return victims if freed >= pod.spec.total_gpus else None


class TestPreemptionAtScale:
    def test_indexed_scan_picks_the_same_victims(self, kernel, nfs):
        rng = random.Random(5)
        cluster = KubernetesCluster(kernel, nfs)
        for i in range(60):
            cluster.add_node(f"node-{i:02d}", gpus=4, gpu_type="k80")
        api, scheduler = cluster.api, cluster.scheduler
        # No kubelets or controllers: the scheduler is driven by hand.
        for i in range(150):
            api.create(gpu_pod(f"res-{i:03d}", gpus=rng.choice((1, 1, 2)),
                               priority=rng.randrange(4)))
        for i in range(70):
            api.create(gpu_pod(f"cpu-{i:03d}", gpus=0, priority=0))
        assert scheduler.schedule_once() == 220
        residents = api.list("Pod")
        for pod in rng.sample(residents, 12):  # on their way out
            pod.deletion_requested = True
            api.update(pod)
        for pod in rng.sample(residents, 12):  # finished, still listed
            pod.phase = "Succeeded"
            release_pod_resources(api, pod)
            api.update(pod)
        # Fill what is left so the urgent pods below find no free node.
        for i in range(120):
            api.create(gpu_pod(f"fill-{i:03d}", gpus=1, priority=1))
        scheduler.schedule_once()
        assert len([p for p in api.list("Pod") if p.node_name]) > 200

        nodes = api.list("Node", namespace="")
        for gpus, priority in ((1, 2), (2, 3), (4, 9), (3, 1)):
            urgent = gpu_pod(f"urgent-{gpus}-{priority}", gpus=gpus,
                             priority=priority)
            for node in nodes:
                expected = full_scan_victims(api, node, urgent)
                got = scheduler._victims_on(node, urgent)
                assert got == expected
                assert got is None or [p.metadata.name for p in got] == \
                    [p.metadata.name for p in expected]

        # End to end: the pass evicts exactly the cheapest node's victims.
        urgent = api.create(gpu_pod("urgent", gpus=4, priority=9))
        choices = [(node, full_scan_victims(api, node, urgent))
                   for node in nodes]
        fewest = min(len(v) for _n, v in choices if v is not None)
        expected = next(v for _n, v in choices
                        if v is not None and len(v) == fewest)
        scheduler.schedule_once()
        preempted = [e.name for e in api.events if e.reason == "Preempted"]
        assert preempted == [p.metadata.name for p in expected]
        assert len(preempted) > 0
