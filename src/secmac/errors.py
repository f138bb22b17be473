"""Exception types shared across the toolkit.

The CLI maps ParameterError (and subclasses) and AmbiguityError to exit
code 2 and SizeCapError to exit code 3.
"""


class ParameterError(ValueError):
    """An argument or configuration value is outside its allowed range."""


class RateInfeasibleError(ParameterError):
    """Requested codebook size exceeds what the alphabet can support."""


class SizeCapError(RuntimeError):
    """A computation would exceed its tractability cap."""


class AmbiguityError(RuntimeError):
    """Unique decomposability fails, so the requested lookup is ill-posed."""


class NotInConstellationError(LookupError):
    """A value was not found among the stored constellation points."""
