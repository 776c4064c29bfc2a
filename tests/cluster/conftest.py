"""Shared fixtures for Kubernetes-simulator tests."""

import pytest

from repro.sim import Kernel

from ..observers import kubernetes, nfs_server


@pytest.fixture
def kernel():
    return Kernel(seed=11)


@pytest.fixture
def nfs(kernel):
    return nfs_server(kernel)


@pytest.fixture
def cluster(kernel, nfs):
    cluster = kubernetes(kernel, nfs)
    cluster.registry.register("tiny", 10)
    cluster.registry.register("framework/tensorflow:1.5", 3000)
    for i in range(3):
        cluster.add_node(f"node-{i}", gpus=4, gpu_type="k80")
    cluster.start()
    return cluster
