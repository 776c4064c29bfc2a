"""Layer map and probe table."""

import inspect
from pathlib import Path

import repro

from perfbench.layers import LAYERS, PROBES, layer_of, probe_targets

SOURCE = Path(repro.__file__).resolve().parent


def test_every_source_file_maps_to_one_known_layer():
    files = sorted(SOURCE.rglob("*.py"))
    assert files
    for path in files:
        assert layer_of(path.relative_to(SOURCE)) in LAYERS, path


def test_sim_is_split_by_file_and_falls_back_to_the_kernel():
    assert layer_of("sim/kernel.py") == "sim.kernel"
    assert layer_of("sim/channels.py") == "sim.kernel"
    assert layer_of("sim/reconciler.py") == "sim.reconciler"
    assert layer_of("sim/timeseries.py") == "sim.metrics"
    assert layer_of("sim/tracing.py") == "sim.tracing"
    assert layer_of("sim/faults.py") == "sim.kernel"


def test_packages_are_layers_and_the_rest_is_the_driver():
    assert layer_of("cluster/resources/pod.py") == "cluster"
    assert layer_of("core/lcm.py") == "core"
    assert layer_of("bench/chaos.py") == "driver"
    assert layer_of("serving/runtime.py") == "driver"
    assert layer_of("__init__.py") == "driver"


def test_every_probe_target_is_a_plain_function():
    targets = list(probe_targets())
    assert {name for name, _owner, _method in targets} == set(PROBES)
    for name, owner, method in targets:
        func = owner.__dict__[method]
        assert inspect.isfunction(func), (name, method)
        assert not inspect.isgeneratorfunction(func), (name, method)
