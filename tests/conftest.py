"""Session setup shared by every test file.

On a failing example, hypothesis' pytest plugin imports
``hypothesis.extra._patching``, whose ``libcst`` import raises a
``DeprecationWarning`` (``mypy_extensions.TypedDict``).  Under
``filterwarnings = ["error"]`` that warning ends the session in an
INTERNALERROR inside the report hook, before the falsifying example is
printed and the later tests run.  Importing the module once here, with
that warning ignored, leaves the warning rule itself unchanged.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
