"""Exception taxonomy shared across the package, and the count check that
every spec constructor shares.

The CLI maps these onto exit codes (see cli.py): usage problems exit 1,
data/format problems exit 2, numeric failures exit 3.
"""

import numbers


def check_counts(owner: object, minimum: int, **values) -> None:
    """Raise TypeError unless every value is an integer (bool is not one),
    and ValueError if one is below `minimum`.

    Spec constructors call this on their count fields, so a model header
    holding 64.0 or true where a count belongs is refused when it is read.
    Messages name the owner: a spec by its class, a function by the name
    it passes as a string.
    """
    where = owner if isinstance(owner, str) else type(owner).__name__
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise TypeError(f"{where}: {name} must be an integer, got {value!r}")
        if value < minimum:
            raise ValueError(f"{where}: {name} must be >= {minimum}, got {value}")


class KwsError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(KwsError):
    """Dimension mismatch. The message names the offending axis or layer."""

    def __init__(self, message: str, axis: str | None = None, layer: str | None = None):
        super().__init__(message)
        self.axis = axis
        self.layer = layer


class AudioFormatError(KwsError):
    """Input audio is not mono 16-bit PCM at the supported sample rate."""


class InsufficientAudioError(KwsError):
    """Signal is shorter than one analysis window."""


class InfeasibleBudgetError(KwsError):
    """No feature-map count satisfies the requested parameter cap."""


class ModelFormatError(KwsError):
    """Base class for model-file parsing failures."""


class BadMagicError(ModelFormatError):
    """File does not start with the model container magic."""


class UnsupportedVersionError(ModelFormatError):
    """Model container version is not supported by this reader."""


class TruncatedPayloadError(ModelFormatError):
    """Weight payload is shorter or longer than the manifest requires."""


class ManifestMismatchError(ModelFormatError):
    """Stored tensors do not match the architecture's weight manifest."""


class NumericError(KwsError):
    """Base class for numeric failures."""


class DivergenceError(NumericError):
    """Training loss became non-finite."""

    def __init__(self, message: str, epoch: int | None = None):
        super().__init__(message)
        self.epoch = epoch


class AgreementError(NumericError):
    """Reference and optimized compute paths disagree beyond tolerance."""
