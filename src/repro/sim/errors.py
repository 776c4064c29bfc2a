"""Exception types for the discrete-event simulation kernel."""


class SimError(Exception):
    """Base class for all simulation-kernel errors."""


class ProcessKilled(SimError):
    """Thrown into a process generator when it is killed.

    A killed process may catch this to run cleanup, but must re-raise or
    return; a process that swallows the kill keeps running, which mirrors
    a SIGTERM handler refusing to exit.
    """

    def __init__(self, reason=""):
        super().__init__(reason or "process killed")
        self.reason = reason


class ChannelClosed(SimError):
    """Raised when getting from (or putting to) a closed channel."""


class SimTimeout(SimError):
    """Raised by helpers that wait with a deadline, when the deadline hits."""

    def __init__(self, seconds):
        super().__init__(f"timed out after {seconds}s (simulated)")
        self.seconds = seconds
