"""Tests for the simulated training loop: checkpointing and resume."""

import pytest

from repro.frameworks import (
    BARE_METAL,
    CheckpointPolicy,
    CheckpointStore,
    K80,
    RESNET50,
    TENSORFLOW,
    TrainingRun,
    WorkloadConfig,
)
from repro.objectstore import ObjectStore
from repro.sim import Kernel, MetricsRegistry

CREDS = {"key": "k"}


@pytest.fixture
def kernel():
    return Kernel(seed=5)


@pytest.fixture
def store(kernel):
    store = ObjectStore(kernel, MetricsRegistry())
    store.link_bandwidth = 1_000_000_000
    store.request_latency = 0.01
    store.create_bucket("results", CREDS)
    return store


def ckpt_store(store):
    return CheckpointStore(store, "results", "jobs/j1", CREDS)


def config():
    return WorkloadConfig(model=RESNET50, framework=TENSORFLOW, gpu=K80)


def run_to_completion(kernel, training, limit=None):
    process = kernel.spawn(training.run())
    return kernel.run_until_complete(process, limit=limit)


class TestTrainingRun:
    def test_completes_target_steps(self, kernel, store):
        training = TrainingRun(kernel, config(), BARE_METAL, target_steps=100)
        assert run_to_completion(kernel, training) == 0
        assert training.step == 100

    def test_startup_time_paid_first(self, kernel):
        training = TrainingRun(kernel, config(), BARE_METAL, target_steps=1)
        run_to_completion(kernel, training)
        assert kernel.now >= TENSORFLOW.startup_time

    def test_progress_callback_cadence(self, kernel):
        reports = []
        training = TrainingRun(kernel, config(), BARE_METAL, target_steps=100,
                               progress_callback=lambda s, t: reports.append(s),
                               progress_every=25)
        run_to_completion(kernel, training)
        assert reports == [25, 50, 75, 100]

    def test_invalid_target_rejected(self, kernel):
        with pytest.raises(ValueError):
            TrainingRun(kernel, config(), BARE_METAL, target_steps=0)

    def test_graceful_stop_returns_143(self, kernel):
        stop = kernel.event()
        training = TrainingRun(kernel, config(), BARE_METAL, target_steps=10_000)
        process = kernel.spawn(training.run(stop_event=stop))

        def stopper():
            yield kernel.sleep(30.0)
            stop.succeed()

        kernel.spawn(stopper())
        assert kernel.run_until_complete(process) == 143
        assert 0 < training.step < 10_000


class TestCheckpointing:
    def test_checkpoints_written_at_interval(self, kernel, store):
        training = TrainingRun(
            kernel, config(), BARE_METAL, target_steps=500,
            checkpoint_policy=CheckpointPolicy(interval=60.0),
            checkpoint_store=ckpt_store(store),
        )
        run_to_completion(kernel, training)
        assert training.checkpoints_written >= 2
        keys = store.list_objects("results", CREDS, prefix="jobs/j1/ckpt-")
        assert len(keys) == training.checkpoints_written

    def test_disabled_policy_writes_nothing(self, kernel, store):
        training = TrainingRun(
            kernel, config(), BARE_METAL, target_steps=200,
            checkpoint_policy=CheckpointPolicy(interval=0),
            checkpoint_store=ckpt_store(store),
        )
        run_to_completion(kernel, training)
        assert store.list_objects("results", CREDS) == []

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            CheckpointPolicy(interval=-1)

    def test_resume_from_latest_checkpoint(self, kernel, store):
        checkpoints = ckpt_store(store)
        first = TrainingRun(
            kernel, config(), BARE_METAL, target_steps=10_000,
            checkpoint_policy=CheckpointPolicy(interval=60.0),
            checkpoint_store=checkpoints,
        )
        process = kernel.spawn(first.run())
        kernel.run(until=400.0)  # crash mid-training
        process.kill("injected crash")
        kernel.run(until=401.0)
        saved_step = checkpoints.latest_step()
        assert saved_step > 0

        second = TrainingRun(
            kernel, config(), BARE_METAL, target_steps=10_000,
            checkpoint_policy=CheckpointPolicy(interval=60.0),
            checkpoint_store=checkpoints,
        )
        restarted = kernel.spawn(second.run())
        kernel.run(until=500.0)
        # The restarted run resumed at the checkpoint, not from zero.
        assert second.step >= saved_step
        assert second.steps_executed == second.step - saved_step
        restarted.kill("end of test")
        kernel.run(until=501.0)

    def test_lost_work_bounded_by_interval(self, kernel, store):
        # Paper §III.h: "the amount of work lost due to a crash is
        # determined by the checkpointing interval."
        checkpoints = ckpt_store(store)
        training = TrainingRun(
            kernel, config(), BARE_METAL, target_steps=10_000,
            checkpoint_policy=CheckpointPolicy(interval=30.0),
            checkpoint_store=checkpoints,
        )
        process = kernel.spawn(training.run())
        kernel.run(until=300.0)
        process.kill("injected crash")
        kernel.run(until=301.0)
        lost_steps = training.step - checkpoints.latest_step()
        steps_per_interval = 30.0 / training.step_seconds
        # Lost work < one checkpoint interval (+ upload slack).
        assert lost_steps <= steps_per_interval * 1.5

    def test_restore_on_empty_store_starts_from_zero(self, kernel, store):
        checkpoints = ckpt_store(store)

        def scenario():
            step = yield from checkpoints.restore(RESNET50)
            return step

        assert kernel.run_until_complete(kernel.spawn(scenario())) == 0


class TestSyntheticLoss:
    def test_loss_decreases_with_steps_for_sane_lr(self):
        from repro.frameworks import synthetic_loss

        losses = [synthetic_loss(0.05, step) for step in (0, 100, 400, 1000)]
        assert losses == sorted(losses, reverse=True)

    def test_optimal_lr_beats_extremes_at_fixed_budget(self):
        from repro.frameworks import synthetic_loss

        at_400 = {lr: synthetic_loss(lr, 400) for lr in (0.002, 0.05, 0.8)}
        assert at_400[0.05] < at_400[0.002]
        assert at_400[0.05] < at_400[0.8]

    def test_huge_lr_diverges(self):
        from repro.frameworks import synthetic_loss

        assert synthetic_loss(0.8, 2000) > synthetic_loss(0.8, 100)

    def test_deterministic(self):
        from repro.frameworks import synthetic_loss

        assert synthetic_loss(0.01, 123) == synthetic_loss(0.01, 123)

    def test_nonpositive_lr_never_learns(self):
        from repro.frameworks import synthetic_loss

        assert synthetic_loss(0.0, 1000) == synthetic_loss(0.0, 0)
