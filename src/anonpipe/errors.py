"""Exception types shared across the pipeline."""


class AnonPipeError(Exception):
    """Base class for all library errors."""


class AuthenticationError(AnonPipeError):
    """Envelope failed authentication (wrong key or modified bytes)."""


class IntegrityError(AnonPipeError):
    """Deterministic ciphertext failed its integrity check."""


class InvalidPoint(AnonPipeError):
    """A value is not a valid element of the group."""


class InsufficientShares(AnonPipeError):
    """Fewer shares than the reconstruction threshold."""


class DuplicateShareX(AnonPipeError):
    """Two shares carry the same evaluation point."""


class PayloadTooLarge(AnonPipeError):
    """Payload does not fit the configured padded size."""


class MissingKey(AnonPipeError):
    """An operation requires a public key that was not supplied."""


class BudgetExceeded(AnonPipeError):
    """Parameter set's working set does not fit the private-memory budget."""

    def __init__(self, working_set: int, budget: int):
        super().__init__(
            f"working set {working_set} bytes exceeds private-memory budget {budget}"
        )
        self.working_set = working_set
        self.budget = budget


class ShuffleFailed(AnonPipeError):
    """All shuffle attempts failed; `phase` names the failing phase."""

    def __init__(self, phase: str, attempts: int):
        super().__init__(f"shuffle failed in {phase} phase after {attempts} attempts")
        self.phase = phase
        self.attempts = attempts


class DecryptionError(AnonPipeError):
    """A record could not be decrypted or parsed."""


class NonCanonicalTuple(AnonPipeError):
    """Covariance four-tuple violates the i <= j convention."""


class BadInput(AnonPipeError, ValueError):
    """A stage's input file is not one the stage reads."""
