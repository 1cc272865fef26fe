"""Exception types raised across the package.

Every error that signals bad user input derives from ValueError so that
callers who do not care about the fine-grained type can catch the usual
built-in.  Errors that signal a computation giving up (truncation failing
to converge, a solver leaving its validity window) derive from
RuntimeError instead.
"""


class DimensionError(ValueError):
    """Operator or state shapes are inconsistent with the model dimension."""


class DomainError(ValueError):
    """A scalar argument lies outside the function's domain (e.g. t < 0)."""


class UnsupportedFrameError(ValueError):
    """The requested reference frame is not defined for this model."""


class UnsupportedRegimeError(ValueError):
    """A closed form was requested outside the regime where it holds."""


class InvalidStateError(ValueError):
    """A density matrix fails Hermiticity, unit trace, or positivity."""


class HermiticityError(ValueError):
    """An operator that must be Hermitian is not."""


class InconsistentDataError(ValueError):
    """Measured inputs admit no solution within the model."""


class OutOfRangeError(ValueError):
    """A parameter extraction landed outside the searchable bracket."""


class TruncationError(RuntimeError):
    """An adaptive truncation could not reach the requested tolerance."""


class StabilityError(RuntimeError):
    """A fixed-step integrator was asked to run outside its stable region."""


class ConfigError(ValueError):
    """A run configuration file is malformed or incomplete."""
