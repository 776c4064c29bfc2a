"""Benchmark-suite helpers.

Every benchmark regenerates one table/figure, prints it, and archives it
under ``bench_results/`` so the run leaves reviewable artifacts even
when pytest captures stdout.

Shared scenario plumbing (tenant credentials, the canonical training
manifest, bucket seeding) lives here too: the individual benches used
to carry their own near-identical copies. This module is importable
both under pytest (conftest auto-import) and from benches run as
scripts (``python benchmarks/bench_x.py`` puts this directory on
``sys.path``).
"""

import json
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_DIR = REPO_ROOT / "bench_results"
RESULT_PATH = REPO_ROOT / "BENCH_perf.json"

CREDS = {"access_key": "AK", "secret": "SK"}


def training_manifest(name, **overrides):
    """The canonical single-learner training manifest the benches vary."""
    base = {
        "name": name, "framework": "tensorflow", "model": "resnet50",
        "learners": 1, "gpus_per_learner": 1, "gpu_type": "k80",
        "target_steps": 100, "checkpoint_interval": 15.0,
        "dataset_size_mb": 100,
        "data": {"bucket": "train-data", "credentials": CREDS},
        "results": {"bucket": "results", "credentials": CREDS},
    }
    base.update(overrides)
    return base


def seed_buckets(platform, size_mb=100):
    """Standard object-store fixtures every training scenario needs."""
    platform.seed_training_data("train-data", CREDS, size_mb=size_mb)
    platform.ensure_results_bucket("results", CREDS)
    return platform


def write_section(name, result):
    """Replace one top-level section of ``BENCH_perf.json`` (what a
    bench's full run records), leaving the other sections as they are."""
    committed = (json.loads(RESULT_PATH.read_text())
                 if RESULT_PATH.exists() else {})
    committed[name] = result
    RESULT_PATH.write_text(json.dumps(committed, indent=2) + "\n")
    print(f"updated {name} section of {RESULT_PATH}")


@pytest.fixture
def record_table():
    RESULTS_DIR.mkdir(exist_ok=True)

    def _record(name, text):
        print()
        print(text)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _record
