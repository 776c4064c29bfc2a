"""Unit tests for the job lifecycle state machine."""

import pytest

from repro.core import (
    COMPLETED,
    DEPLOYING,
    DOWNLOADING,
    FAILED,
    HALTED,
    PROCESSING,
    QUEUED,
    STORING,
    IllegalTransition,
    aggregate_job_status,
    is_terminal,
    validate_transition,
)
from repro.core.states import STALLED


class TestTransitions:
    def test_happy_path(self):
        path = [QUEUED, DEPLOYING, DOWNLOADING, PROCESSING, STORING, COMPLETED]
        for current, nxt in zip(path, path[1:]):
            validate_transition(current, nxt)

    def test_failure_from_anywhere_nonterminal(self):
        for status in (QUEUED, DEPLOYING, DOWNLOADING, PROCESSING, STORING):
            validate_transition(status, FAILED)
            validate_transition(status, HALTED)

    def test_no_exit_from_terminal(self):
        for terminal in (COMPLETED, FAILED, HALTED):
            for target in (QUEUED, PROCESSING, FAILED, COMPLETED):
                if target == terminal:
                    continue
                with pytest.raises(IllegalTransition):
                    validate_transition(terminal, target)

    def test_same_status_is_noop(self):
        validate_transition(PROCESSING, PROCESSING)

    def test_redeploy_rollback_allowed(self):
        # Guardian crash mid-run: rollback takes the job back to DEPLOYING.
        validate_transition(DOWNLOADING, DEPLOYING)
        validate_transition(PROCESSING, DEPLOYING)

    def test_skipping_forward_illegally_rejected(self):
        with pytest.raises(IllegalTransition):
            validate_transition(QUEUED, PROCESSING)
        with pytest.raises(IllegalTransition):
            validate_transition(DEPLOYING, COMPLETED)

    def test_is_terminal(self):
        assert is_terminal(COMPLETED) and is_terminal(FAILED) and is_terminal(HALTED)
        assert not is_terminal(PROCESSING)


def reports(*statuses):
    return [{"status": status} for status in statuses]


class TestAggregation:
    """Pinned cases of the rule the Guardian runs; the properties are in
    tests/property/test_platform_properties.py."""

    def test_no_reports_is_downloading(self):
        assert aggregate_job_status([], store_done=False) == DOWNLOADING

    def test_any_failed_fails_job(self):
        assert aggregate_job_status(reports(PROCESSING, FAILED, COMPLETED),
                                    store_done=True) == FAILED

    def test_one_learner_ahead_makes_the_job_processing(self):
        # Not "as far along as the slowest learner".
        assert aggregate_job_status(reports(DOWNLOADING, COMPLETED),
                                    store_done=False) == PROCESSING

    def test_all_completed(self):
        assert aggregate_job_status(reports(COMPLETED, COMPLETED),
                                    store_done=False) == STORING
        assert aggregate_job_status(reports(COMPLETED, COMPLETED),
                                    store_done=True) == COMPLETED

    def test_stalled_learner_keeps_the_job_processing(self):
        assert aggregate_job_status(reports(STALLED, DOWNLOADING),
                                    store_done=False) == PROCESSING
