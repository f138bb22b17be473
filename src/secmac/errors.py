"""Exception types shared across the toolkit.

The CLI maps two classes to exit code 2: ParameterError, and its subclass
AmbiguityError, which lets a library caller catch a gamma refusal on its
own.  SizeCapError maps to exit code 3.
"""


class ParameterError(ValueError):
    """An argument or configuration value is outside its allowed range."""


class SizeCapError(RuntimeError):
    """A computation would exceed its tractability cap."""


class AmbiguityError(ParameterError):
    """Unique decomposability fails, so the requested lookup is ill-posed."""
