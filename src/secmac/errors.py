"""Exception types shared across the toolkit.

There are three: the CLI maps ParameterError and AmbiguityError to exit
code 2, and SizeCapError to exit code 3.
"""


class ParameterError(ValueError):
    """An argument or configuration value is outside its allowed range."""


class SizeCapError(RuntimeError):
    """A computation would exceed its tractability cap."""


class AmbiguityError(RuntimeError):
    """Unique decomposability fails, so the requested lookup is ill-posed."""
