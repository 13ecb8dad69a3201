"""Exception types shared across the package."""


class CanvaultError(Exception):
    """Base class for all errors raised by this package."""


class DecodeError(CanvaultError):
    """A byte string could not be decoded into a valid wire object.

    Raised for wrong lengths and for values outside the expected group,
    which is how a corrupted or forged ciphertext first shows up.
    """


class DecryptError(CanvaultError):
    """Ciphertext too short to contain its nonce (truncation)."""


class ConsistencyError(CanvaultError):
    """KEM ciphertext failed the decapsulation consistency check."""


class StateError(CanvaultError):
    """A protocol operation was invoked out of phase order."""


class ConfigError(CanvaultError):
    """A scenario configuration is malformed or fails validation."""


class DomainError(CanvaultError):
    """An analytic formula was evaluated outside its domain."""


class RunCheckError(CanvaultError):
    """A run-level invariant check failed (e.g. message count mismatch).

    Carries the offending report so callers can still persist it.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class DeadlockError(RunCheckError):
    """A protocol phase could not start: the run stalled. Carries the report
    of the stages that did run."""
