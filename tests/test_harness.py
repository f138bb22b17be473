"""The test session itself: a failing property test is reported like any other."""

import shutil
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_after():
    pass
"""


def test_failing_property_test_prints_its_example_and_the_session_goes_on(tmp_path):
    # a fresh interpreter: this session has already imported the module the
    # conftest imports, so only a new one shows whether the conftest works
    shutil.copy(TESTS.parent / "pyproject.toml", tmp_path)
    shutil.copy(TESTS / "conftest.py", tmp_path)
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example: test_fails(" in out
    assert "1 failed, 1 passed" in out
    assert run.returncode == 1
