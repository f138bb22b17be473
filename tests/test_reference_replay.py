"""Replay every stored benchmark reference command in process, and guard
the part of the toolkit that the benchmark harness imports.

Each entry of ``perfbench/reference/<workload>.json`` holds a command's
argv, its input files and the CSV it wrote.  Every command must exit 0
and pass ``perfbench/checks.compare`` against its entry: exact commands
byte for byte, Monte Carlo commands cell for cell on their deterministic
columns and within Wilson intervals on their counts.  The harness's
modules are loaded from their files and only read.

The replay also hashes each command's exit code, CSV bytes and ``.meta``
less its ``wall_time_s`` line into one SHA-256 per workload, pinned in
``REPLAY_DIGESTS``.  The pin is tighter than ``checks.compare``: it holds
every Monte Carlo cell and every sidecar byte of the program as it is,
where ``compare`` lets Monte Carlo counts move within Wilson intervals and
reads no sidecar.  It does not replace ``compare``, which ties the program
to the stored reference.  A change to a stream layout, a CSV cell or a
sidecar line re-pins the digest and says so in CHANGES.md, as with
``tests/test_golden.py``.
"""

import contextlib
import functools
import hashlib
import importlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from secmac.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name, monkeypatch):
    """``perfbench/<name>.py`` as a module, registered only for this test."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def reference(workload):
    return json.loads((PERFBENCH / "reference" / f"{workload}.json").read_text())["commands"]


REPLAY_DIGESTS = {
    "campaign": "701760a553c10e209b07abdc1e8e0a7907d42ceff9572f04e9f1411f295de284",
    "block": "e2dda4d1274b36393802699fa225e219254c65c4d03192385a95965df187162d",
    "analysis": "6f0eccd5b816582e3a15df683ba9dfe255ba1bdfaf3ae36baa757167b7616bf2",
}


@pytest.mark.parametrize("workload", ["campaign", "block", "analysis"])
def test_reference_commands_replay(workload, tmp_path, monkeypatch):
    checks = load_perfbench("checks", monkeypatch)
    entries = reference(workload)
    assert len(entries) == 400
    monkeypatch.chdir(tmp_path)
    failures, digest = [], hashlib.sha256()
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
        digest.update(f"{cid} {code}\n".encode())
        if code == 0:
            meta = Path(out + ".meta").read_bytes().splitlines(keepends=True)
            digest.update(Path(out).read_bytes())
            digest.update(b"".join(line for line in meta if not line.startswith(b"wall_time_s =")))
        Path(out).unlink(missing_ok=True)
        Path(out + ".meta").unlink(missing_ok=True)
    assert not failures, failures[:5]
    assert digest.hexdigest() == REPLAY_DIGESTS[workload]


# Sites that the tracer lists as missing because the functions are gone from
# the toolkit (`codec.scale_to_channel`, `simulate.decode_messages`) while the
# tracer still names them (ROADMAP item 4); no other site may go missing.
KNOWN_MISSING_SITES = {"secmac.simulate:scale_to_channel", "secmac.simulate:decode_messages"}


def test_traced_sites_resolve(monkeypatch):
    # a renamed or moved function would silently drop its per-layer metric
    spans = load_perfbench("spans", monkeypatch)
    missing = set()
    for site in spans.SITES:
        module, path = site.target.split(":")
        try:
            functools.reduce(getattr, path.split("."), importlib.import_module(module))
        except (ImportError, AttributeError):
            missing.add(site.target)
    assert missing <= KNOWN_MISSING_SITES


@pytest.mark.parametrize("workload", ["campaign", "block", "analysis"])
def test_catalog_reproduces_reference_commands(workload, monkeypatch):
    # the generator reads select_params, derive_code_sizes and the gain helpers
    workloads = load_perfbench("workloads", monkeypatch)
    entries = reference(workload)
    commands = workloads.catalog(workload)
    assert [c.id for c in commands] == list(entries)
    for c in commands:
        entry = entries[c.id]
        assert (list(c.argv), dict(c.files)) == (entry["argv"], entry["files"]), c.id
