"""Errors raised by the DLaaS core services."""


class DlaasError(Exception):
    """Base class for platform errors."""


class InvalidManifest(DlaasError):
    """Manifest validation failed; carries all problems found."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        super().__init__("; ".join(problems))
        self.problems = list(problems)


class JobNotFound(DlaasError):
    """Unknown job id (or not visible to this tenant)."""


class AuthError(DlaasError):
    """Missing, invalid, or insufficient credentials."""


class RateLimited(DlaasError):
    """Tenant exceeded its request budget."""


class IllegalTransition(DlaasError):
    """Job status update violated the lifecycle state machine."""

    def __init__(self, current, requested):
        super().__init__(f"cannot move job from {current} to {requested}")
        self.current = current
        self.requested = requested


class DeploymentFailed(DlaasError):
    """The Guardian exhausted its deployment attempts."""
