"""Unit tests for naming layout, learner helpers, and helper parsing."""

import pytest

from repro.core import layout
from repro.core.helpers import _exit_code, _learner_report
from repro.core.learner import (
    read_learner_status,
    workload_config_for,
    write_learner_status,
)
from repro.core.manifest import TrainingManifest
from repro.nfs import SharedFilesystem


def sample_manifest(**overrides):
    base = {
        "name": "n", "framework": "horovod", "model": "vgg16",
        "learners": 2, "gpus_per_learner": 2, "gpu_type": "p100-pcie",
        "target_steps": 10, "dataset_size_mb": 10,
        "data": {"bucket": "b", "credentials": {"k": "v"}},
        "results": {"bucket": "r", "credentials": {"k": "v"}},
    }
    base.update(overrides)
    return TrainingManifest.from_dict(base)


class TestLayout:
    def test_resource_names_embed_job_id(self):
        assert layout.guardian_job_name("job-1") == "guardian-job-1"
        assert layout.learner_set_name("job-1") == "job-1-learner"
        assert layout.learner_pod_name("job-1", 3) == "job-1-learner-3"
        assert layout.helper_deployment_name("job-1") == "job-1-helper"
        assert layout.pvc_name("job-1") == "job-1-vol"

    def test_etcd_keys_are_prefix_consistent(self):
        job = "job-9"
        assert layout.learner_status_key(job, 0).startswith(
            layout.learner_status_prefix(job))
        assert layout.learner_status_prefix(job).startswith(layout.job_prefix(job))
        assert layout.halt_key(job).startswith(layout.job_prefix(job))
        assert layout.guardian_attempt_key(job).startswith(
            layout.guardian_prefix(job))
        assert layout.guardian_deployed_key(job, "pvc").startswith(
            layout.guardian_deployed_prefix(job))
        assert layout.guardian_complete_key(job).startswith(
            layout.guardian_prefix(job))
        # deploy-complete must NOT be inside deployed/ (it is not a
        # rollback target).
        assert not layout.guardian_complete_key(job).startswith(
            layout.guardian_deployed_prefix(job))

    def test_nfs_paths_per_learner(self):
        assert layout.learner_status_file(2) == "/learners/learner-2/status"
        assert layout.learner_exit_file(0) == "/learners/learner-0/exit-code"
        assert layout.learner_log_file(1) == "/learners/learner-1/training.log"


class TestLearnerStatusFiles:
    def test_roundtrip(self):
        fs = SharedFilesystem()
        write_learner_status(fs, 0, "PROCESSING", 42, 10.5)
        status = read_learner_status(fs, 0)
        assert status == {"status": "PROCESSING", "step": 42, "time": 10.5}

    def test_missing_is_none(self):
        assert read_learner_status(SharedFilesystem(), 0) is None


class TestWorkloadConfigMapping:
    def test_maps_manifest_fields(self):
        config = workload_config_for(sample_manifest())
        assert config.model.name == "vgg16"
        assert config.framework.name == "horovod"
        assert config.gpu.name == "p100-pcie"
        assert config.gpus_per_learner == 2
        assert config.learners == 2
        assert config.intra_node is not None

    def test_single_gpu_has_no_intra_node(self):
        config = workload_config_for(sample_manifest(gpus_per_learner=1,
                                                     framework="tensorflow"))
        assert config.intra_node is None

    def test_batch_override(self):
        config = workload_config_for(sample_manifest(batch_per_gpu=16))
        assert config.batch == 16


class TestControllerParsing:
    def test_exit_code_parsing(self):
        fs = SharedFilesystem()
        assert _exit_code(fs, 0) is None
        fs.write_file(layout.learner_exit_file(0), "137\n")
        assert _exit_code(fs, 0) == 137
        fs.write_file(layout.learner_exit_file(0), "garbage")
        assert _exit_code(fs, 0) is None

    def test_report_prefers_exit_code(self):
        fs = SharedFilesystem()
        write_learner_status(fs, 0, "PROCESSING", 10, 1.0)
        fs.write_file(layout.learner_exit_file(0), "1")
        report = _learner_report(fs, 0)
        assert report["status"] == "FAILED"
        assert report["exit_code"] == 1
        assert report["step"] == 10
        assert report["time"] == 1.0  # the learner's last write, not ours

    def test_exit_code_mapping(self):
        clock = [4.0]
        fs = SharedFilesystem(clock=lambda: clock[0])
        for code, expected in ((0, "COMPLETED"), (143, "HALTED"), (7, "FAILED")):
            clock[0] += 1.0
            fs.write_file(layout.learner_exit_file(0), str(code))
            report = _learner_report(fs, 0)
            assert report["status"] == expected
            # No status file: the exit file's mtime is the learner's clock.
            assert report["time"] == clock[0]

    def test_no_files_no_report(self):
        assert _learner_report(SharedFilesystem(), 0) is None

    def test_status_only_report(self):
        fs = SharedFilesystem()
        write_learner_status(fs, 1, "WAITING_DATA", 0, 3.0)
        report = _learner_report(fs, 1)
        assert report == {"status": "WAITING_DATA", "step": 0, "time": 3.0}
        assert _learner_report(fs, 1) == report  # unchanged files, equal report
