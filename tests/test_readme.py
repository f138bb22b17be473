"""The library example in README.md runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    (example,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(example, str(README), "exec"), {})
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split()[1] == "GammaStatus.HOLDS"
    assert lines[1].startswith("P,P_tilde,Q,A,d_min,")
    assert len(lines) == 5  # the constellation line, the CSV header and one row per power
