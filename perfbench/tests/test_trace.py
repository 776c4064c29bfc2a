"""The traced run's instruments, on the 6-job steady shape."""

from pathlib import Path

import pytest
import repro

from perfbench.layers import LAYERS, PROBES
from perfbench.measure import run_iteration
from perfbench.trace import Trace
from perfbench.workloads import WORKLOADS


@pytest.fixture(scope="module")
def traced():
    trace = Trace(Path(repro.__file__).resolve().parent)
    return run_iteration(WORKLOADS["steady"].quick(), 2, trace)


def test_sampler_shares_cover_every_layer_and_sum_to_one(traced):
    assert set(traced.shares) == set(LAYERS)
    assert traced.stack_samples > 50
    assert sum(traced.shares.values()) == pytest.approx(1.0)
    assert traced.shares["sim.kernel"] > 0.2


def test_probe_self_time_never_exceeds_cumulative(traced):
    assert set(traced.probes) == set(PROBES)
    for name, (calls, self_ns, cum_ns) in traced.probes.items():
        assert 0 <= self_ns <= cum_ns, name
        assert (calls == 0) == (cum_ns == 0), name
    assert traced.probes["grpcnet.call"][0] > 1000


def test_probes_are_taken_off_again(traced):
    from repro.sim.tracing import Tracer
    assert Tracer.emit.__name__ == "emit"


def test_tracing_leaves_the_timeline_alone(traced):
    assert traced.digest == run_iteration(WORKLOADS["steady"].quick(),
                                          2).digest
