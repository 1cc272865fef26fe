"""Exception types raised across the package, under two roots.

Each class derives from exactly one root, which sets the CLI's exit code:
``InputError`` (a ValueError: bad arguments, config or data) exits 2,
``NumericFailure`` (a FloatingPointError: the computation gave up or left
the double range) exits 3, and keeps any older ValueError/RuntimeError base.
"""


class InputError(ValueError):
    """An argument, config or data file lies outside what the call accepts."""


class NumericFailure(FloatingPointError):
    """A computation gave up or left the double range."""


class DimensionError(InputError):
    """Operator or state shapes are inconsistent with the model dimension."""


class DomainError(InputError):
    """A scalar argument lies outside the function's domain (e.g. t < 0)."""


class UnsupportedFrameError(InputError):
    """The requested reference frame is not defined for this model."""


class UnsupportedRegimeError(InputError):
    """A closed form was requested outside the regime where it holds."""


class InvalidStateError(NumericFailure, ValueError):
    """A density matrix fails Hermiticity, unit trace, or positivity."""


class HermiticityError(InputError):
    """An operator that must be Hermitian is not."""


class InconsistentDataError(NumericFailure, ValueError):
    """Measured inputs admit no solution within the model."""


class OutOfRangeError(NumericFailure, ValueError):
    """A parameter extraction landed outside the searchable bracket."""


class TruncationError(NumericFailure, RuntimeError):
    """An adaptive truncation could not reach the requested tolerance."""


class StabilityError(NumericFailure, RuntimeError):
    """A fixed-step integrator was asked to run outside its stable region."""


class ConfigError(InputError):
    """A run configuration, or a file it names, is malformed or incomplete."""
