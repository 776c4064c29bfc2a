"""Tests for the workload generator."""

import pytest

from repro.bench import workloads
from repro.bench.workloads import DEFAULT_MIX, JobClass, WorkloadGenerator
from repro.core import TrainingManifest


class FakePlatform:
    def __init__(self, seed=0):
        from repro.sim import Kernel

        self.kernel = Kernel(seed=seed)


CREDS = {"k": "v"}


def generator(seed=0, mix=DEFAULT_MIX):
    gen = WorkloadGenerator(FakePlatform(seed), "in", "out", CREDS)
    gen.mix = mix
    return gen


def draw(gen, count):
    return [gen.next_manifest() for _ in range(count)]


class TestWorkloadGenerator:
    def test_manifests_are_valid(self):
        for raw in draw(generator(), 20):
            manifest = TrainingManifest.from_dict(raw)
            assert manifest.target_steps > 0

    def test_deterministic_per_seed(self):
        first = draw(generator(seed=5), 10)
        second = draw(generator(seed=5), 10)
        assert first == second
        different = draw(generator(seed=6), 10)
        assert different != first

    def test_names_unique(self):
        names = [m["name"] for m in draw(generator(), 30)]
        assert len(set(names)) == 30

    def test_weights_respected(self):
        mix = (
            JobClass("common", 9.0, "resnet50", "tensorflow"),
            JobClass("rare", 1.0, "vgg16", "caffe"),
        )
        drawn = draw(generator(mix=mix), 200)
        common = sum(1 for m in drawn if m["name"].startswith("common"))
        assert 150 < common < 200

    def test_steps_within_class_bounds(self, monkeypatch):
        monkeypatch.setattr(workloads, "MIN_STEPS", 10)
        monkeypatch.setattr(workloads, "MAX_STEPS", 20)
        for manifest in draw(generator(), 50):
            assert 10 <= manifest["target_steps"] <= 20

    def test_invalid_rate_rejected(self):
        gen = generator()

        with pytest.raises(ValueError):
            list(gen.poisson_arrivals(None, 1, rate=0))
