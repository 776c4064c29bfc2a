"""The DLaaS core: the paper's primary contribution.

Public entry points:

* :class:`DlaasPlatform` — assemble and start the whole platform;
* :class:`DlaasClient` — submit and manage training jobs;
* :class:`TrainingManifest` — validated job specifications;
* :class:`ComponentCrasher` — dependability fault injection;
* job lifecycle statuses (QUEUED … COMPLETED/FAILED/HALTED).
"""

from .auth import Metering, RateLimiter, TokenRegistry
from .client import DlaasClient
from .errors import (
    AuthError,
    DeploymentFailed,
    DlaasError,
    IllegalTransition,
    InvalidManifest,
    JobNotFound,
    RateLimited,
)
from .events import EVENT_NORMAL, EVENT_WARNING, EventRecorder, PlatformEvent
from .faults import ComponentCrasher, GrayFailureInjector
from .manifest import DataStoreRef, TrainingManifest
from .platform import DlaasPlatform, PlatformConfig
from .rest import RestClient, RestGateway
from .timeline import job_timeline, render_timeline, timeline_digest
from .states import (
    ALL_STATUSES,
    COMPLETED,
    DEPLOYING,
    DOWNLOADING,
    FAILED,
    HALTED,
    PROCESSING,
    QUEUED,
    STORING,
    TERMINAL_STATUSES,
    StatusHistory,
    aggregate_learner_statuses,
    is_terminal,
    validate_transition,
)

__all__ = [
    "ALL_STATUSES",
    "AuthError",
    "COMPLETED",
    "ComponentCrasher",
    "GrayFailureInjector",
    "DEPLOYING",
    "DOWNLOADING",
    "DataStoreRef",
    "DeploymentFailed",
    "DlaasClient",
    "DlaasError",
    "DlaasPlatform",
    "EVENT_NORMAL",
    "EVENT_WARNING",
    "EventRecorder",
    "FAILED",
    "HALTED",
    "IllegalTransition",
    "InvalidManifest",
    "JobNotFound",
    "Metering",
    "PROCESSING",
    "PlatformConfig",
    "PlatformEvent",
    "QUEUED",
    "RateLimited",
    "RateLimiter",
    "RestClient",
    "RestGateway",
    "STORING",
    "StatusHistory",
    "TERMINAL_STATUSES",
    "TokenRegistry",
    "TrainingManifest",
    "aggregate_learner_statuses",
    "is_terminal",
    "job_timeline",
    "timeline_digest",
    "render_timeline",
    "validate_transition",
]
