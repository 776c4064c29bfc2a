"""Unit tests for manifest validation."""

import pytest

from repro.core import InvalidManifest, TrainingManifest


def valid_manifest(**overrides):
    base = {
        "name": "train-vgg",
        "framework": "tensorflow",
        "model": "vgg16",
        "learners": 2,
        "gpus_per_learner": 2,
        "gpu_type": "k80",
        "target_steps": 1000,
        "checkpoint_interval": 120.0,
        "dataset_size_mb": 500,
        "data": {"bucket": "in", "credentials": {"k": "v"}},
        "results": {"bucket": "out", "credentials": {"k": "v"}},
    }
    base.update(overrides)
    return base


class TestValidManifests:
    def test_roundtrip(self):
        manifest = TrainingManifest.from_dict(valid_manifest())
        again = TrainingManifest.from_dict(manifest.to_dict())
        assert again.to_dict() == manifest.to_dict()

    def test_defaults_applied(self):
        manifest = TrainingManifest.from_dict(valid_manifest())
        assert manifest.batch_per_gpu == 0
        assert manifest.learning_rate == 0.01

    def test_total_gpus(self):
        manifest = TrainingManifest.from_dict(valid_manifest())
        assert manifest.total_gpus == 4

    def test_framework_case_insensitive(self):
        manifest = TrainingManifest.from_dict(valid_manifest(framework="TensorFlow"))
        assert manifest.framework == "tensorflow"



class TestInvalidManifests:
    @pytest.mark.parametrize("mutation,fragment", [
        ({"name": ""}, "name"),
        ({"framework": "keras9"}, "framework"),
        ({"model": "lenet-9000"}, "model"),
        ({"learners": 0}, "learners"),
        ({"learners": "two"}, "learners"),
        ({"gpus_per_learner": 0}, "gpus_per_learner"),
        ({"gpus_per_learner": 99}, "gpus_per_learner"),
        ({"gpu_type": "tpu"}, "gpu_type"),
        ({"target_steps": 0}, "target_steps"),
        ({"target_steps": None}, "target_steps"),
        ({"checkpoint_interval": -5}, "checkpoint_interval"),
        ({"batch_per_gpu": -1}, "batch_per_gpu"),
        ({"dataset_size_mb": 0}, "dataset_size_mb"),
        ({"data": {"bucket": "", "credentials": {"k": "v"}}}, "data.bucket"),
        ({"data": {"bucket": "b", "credentials": {}}}, "data.credentials"),
        ({"results": "nope"}, "results"),
    ])
    def test_each_field_validated(self, mutation, fragment):
        with pytest.raises(InvalidManifest) as excinfo:
            TrainingManifest.from_dict(valid_manifest(**mutation))
        assert any(fragment in problem for problem in excinfo.value.problems)

    def test_unknown_keys_rejected_by_name(self):
        # A fault hook in a tenant's manifest is refused, not run.
        bad = valid_manifest(extra={"fail_at_step": 10}, priority=5)
        with pytest.raises(InvalidManifest) as excinfo:
            TrainingManifest.from_dict(bad)
        assert excinfo.value.problems == ["extra: unknown field",
                                          "priority: unknown field"]

    def test_all_problems_reported_at_once(self):
        bad = valid_manifest(name="", model="nope", target_steps=0)
        with pytest.raises(InvalidManifest) as excinfo:
            TrainingManifest.from_dict(bad)
        assert len(excinfo.value.problems) == 3

    def test_non_dict_rejected(self):
        with pytest.raises(InvalidManifest):
            TrainingManifest.from_dict("not a manifest")

    def test_distributed_caffe_rejected(self):
        # Caffe 1.0 has no multi-node story; the manifest catches it.
        with pytest.raises(InvalidManifest) as excinfo:
            TrainingManifest.from_dict(valid_manifest(framework="caffe", learners=4))
        assert any("distributed" in p for p in excinfo.value.problems)

    def test_single_node_caffe_allowed(self):
        manifest = TrainingManifest.from_dict(
            valid_manifest(framework="caffe", learners=1)
        )
        assert manifest.framework == "caffe"


class TestGpuMemoryFit:
    def test_default_batches_fit_their_cards(self):
        # Every zoo default must be valid on both evaluation GPUs.
        for model in ("vgg16", "resnet50", "inceptionv3"):
            for gpu in ("k80", "p100-pcie"):
                framework = "caffe" if model == "vgg16" else "tensorflow"
                TrainingManifest.from_dict(valid_manifest(
                    model=model, framework=framework, learners=1,
                    gpus_per_learner=1, gpu_type=gpu,
                ))

    def test_oversized_batch_rejected(self):
        with pytest.raises(InvalidManifest) as excinfo:
            TrainingManifest.from_dict(valid_manifest(
                model="vgg16", batch_per_gpu=64, gpu_type="k80",
                learners=1, gpus_per_learner=1,
            ))
        assert any("needs" in p and "MB" in p for p in excinfo.value.problems)

    def test_bigger_card_accepts_bigger_batch(self):
        # VGG-16 batch 56: too big for a 12GB K80, fine on a 16GB P100.
        with pytest.raises(InvalidManifest):
            TrainingManifest.from_dict(valid_manifest(
                model="vgg16", batch_per_gpu=56, gpu_type="k80",
                framework="tensorflow", learners=1, gpus_per_learner=1,
            ))
        TrainingManifest.from_dict(valid_manifest(
            model="vgg16", batch_per_gpu=56, gpu_type="p100-pcie",
            framework="tensorflow", learners=1, gpus_per_learner=1,
        ))

    def test_memory_estimate_helpers(self):
        from repro.frameworks import K80
        from repro.frameworks.models import VGG16, training_memory_mb

        required = training_memory_mb(VGG16, 32)
        assert 7000 < required < 10000  # ~1.7GB weights + 32x220MB
        assert required <= K80.memory_gb * 1024.0
        assert training_memory_mb(VGG16, 64) > K80.memory_gb * 1024.0
