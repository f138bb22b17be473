"""Exception types shared across the toolkit.

The CLI maps ParameterError, which also covers a gamma refusal, to exit
code 2 and SizeCapError to exit code 3.
"""


class ParameterError(ValueError):
    """An argument or configuration value is outside its allowed range."""


class SizeCapError(RuntimeError):
    """A computation would exceed its tractability cap."""
