"""The simulated training loop a learner container executes.

Models exactly what the platform observes of real user training code:
framework startup, a stream of steps whose duration comes from the
performance model, periodic progress lines, user-configured periodic
checkpoints to the object store, and resume-from-latest-checkpoint
after a crash (paper §III.g–h).
"""

import math

from .perfmodel import step_time


INITIAL_LOSS = 2.5  # synthetic_loss at step 0
LOSS_FLOOR = 0.08  # what synthetic_loss converges to
OPTIMAL_LR = 0.05  # the learning rate that converges fastest


def synthetic_loss(learning_rate, step):
    """Deterministic training-loss curve for a given learning rate.

    Captures the qualitative behaviour hyper-parameter sweeps explore:
    the effective convergence rate peaks at ``OPTIMAL_LR`` and falls off
    on both sides, and a grossly oversized learning rate diverges. Not a
    model of any real optimizer — just a reproducible, comparable
    quality signal for jobs in the simulation.
    """
    if learning_rate <= 0:
        return INITIAL_LOSS
    if learning_rate > 8 * OPTIMAL_LR:
        # Divergence: loss grows with steps.
        return INITIAL_LOSS * (1.0 + (learning_rate / OPTIMAL_LR) * step / 2000.0)
    ratio = learning_rate / OPTIMAL_LR
    rate = ratio * math.exp(1.0 - ratio)  # peaks at 1.0 when lr == optimal
    return LOSS_FLOOR + (INITIAL_LOSS - LOSS_FLOOR) * math.exp(-rate * step / 400.0)


class CheckpointPolicy:
    """User-configured checkpointing (paper §III.g).

    ``interval`` is simulated seconds between checkpoints; 0 disables
    checkpointing, which makes every crash lose the whole run so far —
    the tradeoff the checkpoint ablation bench sweeps.
    """

    def __init__(self, interval=300.0):
        if interval < 0:
            raise ValueError("checkpoint interval must be >= 0")
        self.interval = interval

    @property
    def enabled(self):
        return self.interval > 0


class CheckpointStore:
    """Learner-side view of checkpoints in the object store."""

    def __init__(self, object_store, bucket, prefix, credentials):
        self.object_store = object_store
        self.bucket = bucket
        self.prefix = prefix
        self.credentials = credentials

    def save(self, step, model):
        """Process generator: upload one checkpoint; returns its key."""
        key = f"{self.prefix}/ckpt-{step:010d}"
        size = int(model.checkpoint_mb * 1_000_000)
        yield from self.object_store.upload(self.bucket, key, self.credentials,
                                            size=size, payload={"step": step})
        return key

    def latest_step(self):
        """Step number of the newest checkpoint, or 0 if none exists."""
        keys = self.object_store.list_objects(self.bucket, self.credentials,
                                              prefix=self.prefix + "/ckpt-")
        if not keys:
            return 0
        newest = max(keys)
        return int(newest.rsplit("-", 1)[1])

    def restore(self, model):
        """Process generator: download the newest checkpoint; returns step."""
        step = self.latest_step()
        if step == 0:
            return 0
        key = f"{self.prefix}/ckpt-{step:010d}"
        yield from self.object_store.download(self.bucket, key, self.credentials)
        return step


class TrainingRun:
    """One learner's training loop over the simulated clock.

    Restartable: constructing a new TrainingRun against the same
    checkpoint store resumes from the latest checkpoint, repeating any
    steps after it — the "work lost is bounded by the checkpoint
    interval" behaviour of §III.h.
    """

    def __init__(self, kernel, config, platform, target_steps,
                 checkpoint_policy=None, checkpoint_store=None,
                 progress_callback=None, progress_every=50, on_started=None):
        if target_steps <= 0:
            raise ValueError("target_steps must be positive")
        self.kernel = kernel
        self.config = config
        self.platform = platform
        self.target_steps = target_steps
        self.checkpoint_policy = checkpoint_policy or CheckpointPolicy(interval=0)
        self.checkpoint_store = checkpoint_store
        self.progress_callback = progress_callback
        self.progress_every = progress_every
        self.on_started = on_started
        self.step = 0
        self.steps_executed = 0
        self.checkpoints_written = 0

    @property
    def step_seconds(self):
        return step_time(self.config, self.platform)

    def run(self, stop_event=None):
        """Process generator: startup, resume, then step until done.

        ``stop_event`` (a triggered-when-stopping kernel event) makes
        the loop exit cleanly at the next step boundary with exit code
        143, the graceful-termination path.
        """
        yield self.kernel.sleep(self.config.framework.startup_time)
        if self.checkpoint_store is not None and self.checkpoint_policy.enabled:
            self.step = yield from self.checkpoint_store.restore(self.config.model)
        else:
            self.step = 0
        if self.on_started is not None:
            # Framework initialized and checkpoint restored: training is
            # now actively stepping (the "recovered" instant of Fig. 4).
            self.on_started(self.step, self.kernel.now)
        last_checkpoint_time = self.kernel.now
        last_reported = -1
        seconds = self.step_seconds
        while self.step < self.target_steps:
            if stop_event is not None and stop_event.triggered:
                return 143
            yield self.kernel.sleep(seconds)
            self.step += 1
            self.steps_executed += 1
            if self.progress_callback is not None and \
                    self.step % self.progress_every == 0:
                self.progress_callback(self.step, self.kernel.now)
                last_reported = self.step
            due = (
                self.checkpoint_policy.enabled
                and self.checkpoint_store is not None
                and self.kernel.now - last_checkpoint_time
                >= self.checkpoint_policy.interval
            )
            if due:
                yield from self.checkpoint_store.save(self.step, self.config.model)
                self.checkpoints_written += 1
                last_checkpoint_time = self.kernel.now
        if self.progress_callback is not None and self.step != last_reported:
            self.progress_callback(self.step, self.kernel.now)
        return 0
