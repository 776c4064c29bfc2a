"""Overlapping gray-fault injections against the same target must
compose while both are live and unwind to a pristine state regardless
of revert order — each revert removes exactly its own layer."""

import pytest

from repro.core import Fault, fire
from repro.grpcnet import LatencyModel, Network
from repro.sim import Kernel, MetricsRegistry

from ..integration.conftest import make_platform


@pytest.fixture
def kernel():
    return Kernel(seed=11)


@pytest.fixture
def network(kernel):
    return Network(kernel, MetricsRegistry(),
                   latency=LatencyModel(base=0.001, jitter=0.0))


def pristine(network):
    return (not network._impaired and not network._impairment_layers
            and not network._oneway)


class TestImpairmentLayers:
    def test_latency_layers_add(self, network):
        l1 = network.degrade("svc", extra_latency=0.1)
        l2 = network.degrade("svc", extra_latency=0.25)
        assert network._impaired.get("svc").extra_latency == pytest.approx(0.35)
        network.restore("svc", l1)
        assert network._impaired.get("svc").extra_latency == pytest.approx(0.25)
        network.restore("svc", l2)
        assert pristine(network)

    def test_loss_layers_compose_as_independent_events(self, network):
        l1 = network.degrade("svc", loss=0.5)
        l2 = network.degrade("svc", loss=0.5)
        assert network._impaired.get("svc").loss == pytest.approx(0.75)
        network.restore("svc", l2)
        assert network._impaired.get("svc").loss == pytest.approx(0.5)
        network.restore("svc", l1)
        assert pristine(network)

    def test_mixed_layers_revert_in_any_order(self, network):
        slow = network.degrade("svc", extra_latency=0.2)
        lossy = network.degrade("svc", loss=0.3, duplicate=0.1)
        # Revert in injection order this time; the reversed order is
        # covered by the cases above.
        network.restore("svc", slow)
        composed = network._impaired.get("svc")
        assert composed.extra_latency == 0.0
        assert composed.loss == pytest.approx(0.3)
        assert composed.duplicate == pytest.approx(0.1)
        network.restore("svc", lossy)
        assert pristine(network)

    def test_restore_tolerates_double_revert(self, network):
        layer = network.degrade("svc", extra_latency=0.1)
        network.restore("svc", layer)
        network.restore("svc", layer)  # already gone: no-op
        network.restore("absent")      # never impaired: no-op
        assert pristine(network)

    def test_restore_all_clears_the_stack(self, network):
        network.degrade("svc", extra_latency=0.1)
        network.degrade("svc", loss=0.2)
        network.restore("svc")
        assert pristine(network)

    def test_oneway_partitions_stack_per_direction(self, network):
        network.partition_oneway("a", "b")
        network.partition_oneway("a", "b")
        assert network._blocked("a", "b")
        assert not network._blocked("b", "a")
        network.heal_oneway("a", "b")
        assert network._blocked("a", "b")  # one injection still live
        network.heal_oneway("a", "b")
        assert not network._blocked("a", "b")
        network.heal_oneway("a", "b")  # extra heal: no-op
        assert pristine(network)


class TestOverlappingInjections:
    """End-to-end: two ``inject_gray`` windows overlapping on the same
    target, driven through the platform's fault injector with
    durations, must leave the platform pristine after both expire."""

    @pytest.fixture(scope="class")
    def result(self):
        platform = make_platform(seed=13)
        network = platform.network
        address = platform.api_balancer.endpoints[0]
        node_id = platform.etcd.node_ids[0]
        node = platform.etcd.node(node_id)

        # Two slows overlapping on one API endpoint: [1, 4) and [2, 6).
        fire(platform, Fault("slow", address, 0.01, 3.0))
        platform.run_for(1.0)
        fire(platform, Fault("slow", address, 0.02, 4.0))
        # A lossy layer on the same endpoint inside the same window.
        fire(platform, Fault("loss", address, 0.05, 1.0))
        # Two overlapping disk stalls on one etcd node.
        fire(platform, Fault("disk-stall", node_id, 0.005, 2.0))
        fire(platform, Fault("disk-stall", node_id, 0.01, 4.0))

        samples = {}
        platform.run_for(0.5)  # t=1.5: everything live
        samples["peak_latency"] = network._impaired.get(address).extra_latency
        samples["peak_loss"] = network._impaired.get(address).loss
        samples["peak_stall"] = node.disk_stall
        platform.run_for(1.7)  # t=3.2: loss, slow 1 and stall 1 reverted
        samples["mid_latency"] = network._impaired.get(address).extra_latency
        samples["mid_loss"] = network._impaired.get(address).loss
        samples["mid_stall"] = node.disk_stall
        platform.run_for(2.5)  # t=5.7: everything reverted
        samples["network_pristine"] = pristine(network)
        samples["end_stall"] = node.disk_stall
        samples["stall_layers"] = dict(platform.faults.stall_layers)
        return samples

    def test_overlapping_slows_compose_then_unwind(self, result):
        assert result["peak_latency"] == pytest.approx(0.03)
        assert result["mid_latency"] == pytest.approx(0.02)

    def test_loss_layer_reverts_without_touching_slows(self, result):
        assert result["peak_loss"] == pytest.approx(0.05)
        assert result["mid_loss"] == 0.0

    def test_overlapping_disk_stalls_sum_then_unwind(self, result):
        assert result["peak_stall"] == pytest.approx(0.015)
        assert result["mid_stall"] == pytest.approx(0.01)
        assert result["end_stall"] == 0.0
        assert result["stall_layers"] == {}

    def test_platform_network_is_pristine_after_expiry(self, result):
        assert result["network_pristine"]
