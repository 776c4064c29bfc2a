"""Substrate microbenchmarks (wall-clock, via pytest-benchmark).

These measure the *simulator's* own performance — how fast the Raft
cluster commits, the document store queries, the kernel dispatches
events — so regressions in the reproduction's machinery are visible.
All other benches in this directory measure simulated time; these
measure real time.
"""

from repro.core.events import EventRecorder
from repro.docstore import Collection
from repro.grpcnet import LatencyModel, Network
from repro.raftkv import EtcdClient, EtcdCluster
from repro.sim import Kernel, MetricsRegistry


def test_kernel_event_dispatch(benchmark):
    def run():
        kernel = Kernel(seed=0)

        def ticker():
            for _ in range(5000):
                yield kernel.sleep(0.001)

        kernel.run_until_complete(kernel.spawn(ticker()))
        return kernel.now

    result = benchmark(run)
    assert result > 4.9


def test_raft_commit_throughput(benchmark):
    def run():
        kernel = Kernel(seed=0)
        metrics = MetricsRegistry()
        network = Network(kernel, metrics, latency=LatencyModel(0.001, 0.0))
        cluster = EtcdCluster(kernel, network, metrics,
                              EventRecorder(kernel, metrics), size=3).start()
        client = EtcdClient(kernel, network, cluster)

        def writer():
            yield from cluster.wait_for_leader()
            for i in range(200):
                yield from client.put(f"k{i % 10}", i)

        kernel.run_until_complete(kernel.spawn(writer()), limit=120)
        return cluster.leader().commit_index

    commits = benchmark(run)
    assert commits >= 200


def test_docstore_query_throughput(benchmark):
    coll = Collection("bench")
    for i in range(2000):
        coll.insert_one({"i": i, "status": "PROCESSING" if i % 3 else "COMPLETED",
                         "nested": {"gpu": i % 4}})

    def run():
        return len(coll.find({"status": "PROCESSING", "nested.gpu": {"$gte": 2}}))

    count = benchmark(run)
    assert count > 0


def test_platform_boot_wall_time(benchmark):
    """How long a full platform boot takes in real seconds."""
    from repro.bench import build_platform

    def run():
        platform = build_platform("k80", gpus_per_node=4)
        return platform.kernel.now

    booted_at = benchmark.pedantic(run, rounds=1, iterations=1)
    assert booted_at >= 15.0
