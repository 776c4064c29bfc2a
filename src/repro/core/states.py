"""The DL job lifecycle state machine.

Users rely on these statuses (with timestamps) for profiling and
debugging, so updates must be dependable and ordered (paper §II).
Transitions are strictly validated: a job can only move forward along
the lifecycle, or sideways into FAILED/HALTED.
"""

from .errors import IllegalTransition

QUEUED = "QUEUED"
DEPLOYING = "DEPLOYING"
DOWNLOADING = "DOWNLOADING"
PROCESSING = "PROCESSING"
STORING = "STORING"
COMPLETED = "COMPLETED"
FAILED = "FAILED"
HALTED = "HALTED"

ALL_STATUSES = (QUEUED, DEPLOYING, DOWNLOADING, PROCESSING, STORING,
                COMPLETED, FAILED, HALTED)

# A learner report, never a job status: the controller saw no progress
# for too long, and the Guardian is restarting the learner.
STALLED = "STALLED"

TERMINAL_STATUSES = frozenset({COMPLETED, FAILED, HALTED})

# Forward edges of the lifecycle. FAILED/HALTED are reachable from any
# non-terminal state; re-deployment after a crash may also legally move
# a job *backwards* from DOWNLOADING/PROCESSING to DEPLOYING (the
# Guardian rolled back a partial deployment and is trying again).
_TRANSITIONS = {
    QUEUED: {DEPLOYING},
    DEPLOYING: {DOWNLOADING, PROCESSING},
    DOWNLOADING: {PROCESSING, DEPLOYING},
    PROCESSING: {STORING, COMPLETED, DEPLOYING},
    STORING: {COMPLETED},
    COMPLETED: set(),
    FAILED: set(),
    HALTED: set(),
}


def validate_transition(current, requested):
    """Raise :class:`IllegalTransition` unless current -> requested is legal."""
    if current == requested:
        return
    if current in TERMINAL_STATUSES:
        raise IllegalTransition(current, requested)
    if requested in (FAILED, HALTED):
        return
    if requested not in _TRANSITIONS.get(current, set()):
        raise IllegalTransition(current, requested)


def is_terminal(status):
    return status in TERMINAL_STATUSES


# How each terminal status is reported to the platform event log: a
# failed job is a Warning on the operator's dashboard, completion and
# user-requested halts are routine.
TERMINAL_EVENT_FOR = {
    COMPLETED: ("Normal", "JobCompleted"),
    FAILED: ("Warning", "JobFailed"),
    HALTED: ("Normal", "JobHalted"),
}


def aggregate_job_status(learner_reports, store_done):
    """The job status the Guardian records for its learners' reports
    (§III.f).

    ``learner_reports`` are the controller's per-learner dicts in etcd
    (anything else is ignored); ``store_done`` is whether the
    store-results helper has finished. A failed learner fails the job; a
    stalled one is being restarted, so it counts as PROCESSING. The job
    is not held back by its slowest learner: one learner PROCESSING or
    COMPLETED makes it PROCESSING (``[DOWNLOADING, COMPLETED]`` gives
    PROCESSING), and it is STORING only once every learner COMPLETED.
    """
    reports = {r["status"] for r in learner_reports if isinstance(r, dict)}
    if STALLED in reports:
        reports.discard(STALLED)
        reports.add(PROCESSING)
    if FAILED in reports:
        return FAILED
    if store_done:
        return COMPLETED
    if reports == {COMPLETED}:
        return STORING
    if PROCESSING in reports or COMPLETED in reports:
        return PROCESSING
    # Learners exist but are still waiting on data / binding stores,
    # or have not reported at all: the job is still staging.
    return DOWNLOADING
