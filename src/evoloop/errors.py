"""Exception taxonomy shared across the package.

ValidationError covers bad inputs and bad config (CLI exit code 1).
BackendError is a model backend call that failed on every retry (CLI exit
code 3); the iteration it interrupted was never flushed, so a resume
starts again from the last committed one.
The remaining errors are invariant breaches (CLI exit code 2).
"""


class EvoloopError(Exception):
    """Base class for all package errors."""


class ValidationError(EvoloopError):
    """Input or configuration outside the documented domain."""


class NotFoundError(EvoloopError):
    """Referenced node, snapshot, or bandit context does not exist."""


class CycleError(EvoloopError):
    """Edge insert would break prerequisite acyclicity."""


class CapError(EvoloopError):
    """Structural growth cap reached (skill count)."""


class FrozenGraphError(EvoloopError):
    """Write attempted while the graph is frozen for inference."""


class IntegrityError(EvoloopError):
    """Event log or snapshot record is corrupt or inconsistent."""


class BackendError(EvoloopError):
    """A model backend call failed on every attempt."""
