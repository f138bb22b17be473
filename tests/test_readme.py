"""The examples in README.md run as written."""

import pathlib
import re
import shlex

from secmac import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_library_example_runs(capsys):
    (example,) = blocks("python")
    exec(compile(example, str(README), "exec"), {})
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split()[1] == "GammaStatus.HOLDS"
    assert lines[1].startswith("P,P_tilde,Q,A,d_min,")
    assert len(lines) == 5  # the constellation line, the CSV header and one row per power


def test_cli_examples_run(tmp_path, capsys, monkeypatch):
    # the config and the spec are the README's two ini blocks, under the
    # names its command lines give them
    monkeypatch.chdir(tmp_path)
    config, spec = blocks("ini")
    (tmp_path / "sweep.cfg").write_text(config)
    (tmp_path / "adder.spec").write_text(spec)
    lines = [line for block in blocks("sh") for line in block.splitlines()
             if line.startswith("secmac ")]
    assert len(lines) == 10
    outs = {}
    for line in lines:
        command, _, comment = line.partition("#")
        argv = shlex.split(command)[1:]
        assert cli.main(argv) == 0, line
        outs[comment.strip()] = capsys.readouterr().out
    params = outs["power split: Q=19, A~51.79"]
    assert "Q = 19" in params
    assert round(float(re.search(r"^A = (\S+)$", params, re.M)[1]), 2) == 51.79
    collision = outs["exact-rational path: collision"]
    assert "gamma = violated" in collision and "exact = 1" in collision
