"""Replay every stored benchmark reference command in process.

Each entry of ``perfbench/reference/<workload>.json`` holds a command's
argv, its input files and the CSV it wrote.  Every command must exit 0
and pass ``perfbench/checks.compare`` against its entry: exact commands
byte for byte, Monte Carlo commands cell for cell on their deterministic
columns and within Wilson intervals on their counts.  ``checks`` is
loaded from its file and only read.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from secmac.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", PERFBENCH / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["campaign", "block", "analysis"])
def test_reference_commands_replay(workload, tmp_path, monkeypatch):
    checks = load_checks()
    entries = json.loads((PERFBENCH / "reference" / f"{workload}.json").read_text())["commands"]
    assert len(entries) == 400
    monkeypatch.chdir(tmp_path)
    failures = []
    for cid, entry in entries.items():
        for name, text in entry["files"].items():
            Path(name).write_text(text, encoding="utf-8")
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(list(entry["argv"]))
        out = f"{cid}.csv"
        reason = checks.compare(entry["kind"], entry, Path(out).read_text()) if code == 0 else None
        if code != 0 or reason is not None:
            failures.append((cid, code, reason or sink.getvalue()[-200:]))
        Path(out).unlink(missing_ok=True)
        Path(out + ".meta").unlink(missing_ok=True)
    assert not failures, failures[:5]
