"""Shared fixtures for end-to-end platform tests.

A fresh (small, fast) platform per test: 2 GPU nodes, short jobs, tight
checkpoint intervals, so each scenario finishes in well under a second
of wall-clock time.
"""

import pytest

from repro import DlaasPlatform
from repro.core import PlatformConfig, layout

CREDS = {"access_key": "AK", "secret": "SK"}


def make_platform(seed=7, **config_overrides):
    defaults = dict(gpu_nodes=2, gpus_per_node=4, management_nodes=2)
    defaults.update(config_overrides)
    platform = DlaasPlatform(seed=seed, config=PlatformConfig(**defaults))
    platform.start()
    platform.seed_training_data("train-data", CREDS, size_mb=100)
    platform.ensure_results_bucket("results", CREDS)
    return platform


@pytest.fixture
def platform():
    return make_platform()


@pytest.fixture
def client(platform):
    return platform.client("team-a")


def manifest(**overrides):
    base = {
        "name": "test-job",
        "framework": "tensorflow",
        "model": "resnet50",
        "learners": 1,
        "gpus_per_learner": 1,
        "gpu_type": "k80",
        "target_steps": 60,
        "checkpoint_interval": 20.0,
        "dataset_size_mb": 100,
        "data": {"bucket": "train-data", "credentials": CREDS},
        "results": {"bucket": "results", "credentials": CREDS},
    }
    base.update(overrides)
    return base


def submit_with_fault(platform, client, manifest_dict, kind, step):
    """Submit a job and arm its learner 0 to ``kind`` ("hang" or
    "fail") at training step ``step``; returns the job id."""
    job_id = platform.run_process(client.submit(manifest_dict), limit=600)
    platform.faults.arm(layout.learner_pod_name(job_id, 0), kind, step)
    return job_id


def submit_and_wait_running(platform, client, manifest_dict, timeout=300.0):
    """Submit a job and advance the clock until it is PROCESSING."""

    def scenario():
        job_id = yield from client.submit(manifest_dict)
        interval, client.poll_interval = client.poll_interval, 1.0
        try:
            yield from client.wait_for_status(
                job_id, statuses={"PROCESSING"}, timeout=timeout)
        finally:
            client.poll_interval = interval
        return job_id

    return platform.run_process(scenario(), limit=timeout * 2)


def wait_terminal(platform, client, job_id, timeout=3000.0):
    def scenario():
        doc = yield from client.wait_for_status(job_id, timeout=timeout)
        return doc

    return platform.run_process(scenario(), limit=timeout * 2)
