import contextlib
import errno
import fcntl
import io
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secmac import ParameterError, __version__, cli, select_params
from secmac.cli import comma_list, main, parse_gain_token
from secmac.keyvalue import key_values, read_text

ADDER_SPEC = """\
k = 2
u_sizes = 2 2
x_sizes = 2 2
y_size = 3
z_size = 1
p_u_1 = 0.5 0.5
p_u_2 = 0.5 0.5
p_x_given_u_1 = 1 0 0 1
p_x_given_u_2 = 1 0 0 1
p_yz_given_x = 1 0 0  0 1 0  0 1 0  0 0 1
"""

SWEEP_CONFIG = """\
# noiseless smoke sweep
k = 2
epsilon = 0.5
p_grid = 1e2,1e4
trials = 500
h = 1.4142135623730951,1
h_e = 1,1
variance = 0
master_seed = 11
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParams:
    def test_known_values(self, capsys):
        code, out, _ = run(capsys, "params", "--p-tilde", "1e6", "--k", "2", "--eps", "0.1")
        assert code == 0
        assert "Q = 19" in out
        assert "51.794746" in out

    def test_unit_power(self, capsys):
        code, out, _ = run(capsys, "params", "--p-tilde", "1", "--k", "2", "--eps", "0.1")
        assert code == 0
        assert "Q = 1" in out

    def test_infeasible_exits_2(self, capsys):
        code, _, err = run(capsys, "params", "--p-tilde", "0.5", "--k", "2", "--eps", "0.1")
        assert code == 2
        assert "infeasible" in err

    def test_from_p_and_gains(self, capsys):
        code, out, _ = run(
            capsys, "params", "--p", "10", "--h-e", "1.5,4", "--k", "2", "--eps", "0.1"
        )
        assert code == 0
        assert "P_tilde = 22.5" in out


class TestDmin:
    def test_sqrt2(self, capsys):
        code, out, _ = run(
            capsys, "dmin", "--gains", "1.41421356237,1", "--q", "2", "--a", "1"
        )
        assert code == 0
        assert "d_min = 0.171572875" in out
        assert "gamma = holds" in out

    def test_exact_rational_collision(self, capsys):
        # every token is a/b, so the collision is decided in exact arithmetic
        code, out, _ = run(capsys, "dmin", "--gains", "1/2,1/1", "--q", "2", "--a", "1")
        assert code == 0
        assert "gamma = violated" in out
        assert "d_min = 0" in out
        assert "exact = 1" in out

    def test_one_decimal_token_makes_the_list_float(self, capsys):
        # a bare "1" is a decimal token: the same collision, found on the float path
        code, out, _ = run(capsys, "dmin", "--gains", "1/2,1", "--q", "2", "--a", "1")
        assert code == 0
        assert "gamma = violated" in out
        assert "exact = 0" in out

    def test_cap_exits_3(self, capsys):
        # 217^3 symbol tuples pass ENUMERATION_CAP = 10^7
        code, _, err = run(
            capsys, "dmin", "--gains", "1.41421356237,1.7320508,1", "--q", "108", "--a", "1"
        )
        assert code == 3
        assert err == "error: constellation needs 10218313 points, cap is 10000000\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("dmin", "--gains", "-1.41421356237,1", "--q", "2", "--a", "1"),
            ("dmin", "--gains", "-1/2,1", "--q", "2", "--a", "1"),
            ("kg", "--gains", "-1.4142135623730951,-.5", "--eps", "0.5", "--n-list", "2,4"),
            ("params", "--p", "10", "--h-e", "-1.5,4", "--k", "2", "--eps", "0.1"),
        ],
    )
    def test_negative_list_as_separate_token(self, capsys, argv):
        # "--gains -1,2" behaves exactly like "--gains=-1,2"; only the wall
        # time in the sidecar may differ between the two runs
        flag = argv.index("--gains") if "--gains" in argv else argv.index("--h-e")
        joined = argv[:flag] + (f"{argv[flag]}={argv[flag + 1]}",) + argv[flag + 2 :]
        got, want = (run(capsys, *a) for a in (argv, joined))
        assert got[0] == 0
        assert got[::2] == want[::2]  # exit code and stderr
        wall = r"wall_time_s = \S+"
        assert re.sub(wall, "", got[1]) == re.sub(wall, "", want[1])

    @pytest.mark.parametrize("gains", ["1/3,1", "1/3,1/1"])  # a float and an exact build
    def test_points_past_the_float_range_exit_2(self, gains):
        argv = ["dmin", "--gains", gains, "--q", "2", "--a", "1e308"]
        code, out, err, caught = run_quietly(argv)
        assert_contract(argv, code, out, err, caught)
        assert (code, err) == (2, "error: received points overflow float64\n")

    @pytest.mark.parametrize("q, code", [("0", 0), ("1", 2)])
    def test_gain_sum_past_the_float_range(self, q, code):
        # Q = 0 is the one point 0 whatever the gains; Q = 1 overflows
        argv = ["dmin", "--gains", "1e308,1e308,-1", "--q", q, "--a", "0.1"]
        got, out, err, caught = run_quietly(argv)
        assert_contract(argv, got, out, err, caught)
        assert got == code
        if code:
            assert err == "error: received points overflow float64\n"
        else:
            assert "0,0.10000000000000001,1,holds,inf" in out

    @pytest.mark.parametrize(
        "gains,a",
        [("1/3,1", "1e-320"), ("1.0000001,1", "5e-324"), ("1/7,1/1", "5e-324")],
    )
    def test_gap_underflow_exits_2(self, gains, a):
        # distinct sums, but no float gap: never "holds" with d_min = 0
        argv = ["dmin", "--gains", gains, "--q", "2", "--a", a]
        code, out, err, caught = run_quietly(argv)
        assert_contract(argv, code, out, err, caught)
        assert code == 2 and "gap underflows float64" in err
        assert "gamma" not in out

    def test_bad_gain_token_exits_2(self, capsys):
        code, _, err = run(capsys, "dmin", "--gains", "x,y", "--q", "1", "--a", "1")
        assert code == 2

    @pytest.mark.parametrize("argv", [  # the bad list last
        ("kg", "--gains", "1.5", "--eps", "0.5", "--n-list", "2,x"),
        ("kg", "--gains", "1.5", "--eps", "0.5", "--n-list", ""),
        ("dmin", "--q", "1", "--a", "1", "--gains", "1,1/0"),
    ])
    def test_bad_flag_list_quotes_it(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(argv[-1]) in err

    @pytest.mark.parametrize(
        "gains,a",
        [("nan,1", "1"), ("1.5,1", "nan"), ("inf,1", "1")],
    )
    def test_non_finite_input_exits_2(self, capsys, gains, a):
        code, out, err = run(capsys, "dmin", "--gains", gains, "--q", "2", "--a", a)
        assert code == 2
        assert "finite" in err
        assert "gamma" not in out


class TestSweep:
    def test_noiseless_all_zero(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CONFIG)
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--config", str(cfg), "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        header = lines[0].split(",")
        pe_idx = header.index("pe_mc")
        assert [line.split(",")[pe_idx] for line in lines[1:]] == ["0", "0"]
        meta = (tmp_path / "sweep.csv.meta").read_text()
        assert "command = sweep" in meta
        assert "wall_time_s" in meta

    @pytest.mark.parametrize("p_grid, fitted", [("1e4", False), ("1e2,1e4", True)])
    def test_fit_keys_only_when_the_grid_has_a_fit(self, tmp_path, capsys, p_grid, fitted):
        # one grid point has no S-DoF fit: its .meta leaves the fit keys out
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"k = 2\nepsilon = 0.5\np_grid = {p_grid}\ntrials = 1\nn = 1\n")
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--config", str(cfg), "--out", str(out_path))
        assert code == 0
        meta = (tmp_path / "sweep.csv.meta").read_text()
        assert "nan" not in meta.lower()
        keys = [line.split(" = ")[0] for line in meta.splitlines()[1:]]
        fit_keys = ["slope", "intercept", "fit_residual"]
        assert [k for k in keys if k in fit_keys] == (fit_keys if fitted else [])
        assert keys[-1] == "stream_layout"

    def test_missing_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("k = 2\nepsilon = 0.5\n")
        code, _, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == 2
        assert "p_grid" in err and "trials" in err

    @pytest.mark.parametrize("key", ["p_grid", "h", "h_e"])
    @pytest.mark.parametrize("value", ["1,x", "1,1/0", ","])
    def test_bad_list_value_names_file_and_line(self, tmp_path, capsys, key, value):
        config = {"k": "2", "epsilon": "0.5", "p_grid": "1e4", "trials": "1", "h": "1.5,1"}
        config[key] = value
        cfg = tmp_path / "c.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
        code, out, err = run(capsys, "sweep", "--config", str(cfg))
        line = list(config).index(key) + 1
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {cfg}:{line}: bad value for {key!r}: ")
        assert err.count("\n") == 1

    def test_p_grid_reads_a_over_b(self, tmp_path, capsys):
        # a grid token may be a/b, read exactly and then rounded, as in h and h_e
        cfg = tmp_path / "sweep.cfg"
        outs = []
        for grid in ("1e2,1e4", "100/1,20000/2"):
            cfg.write_text(SWEEP_CONFIG.replace("p_grid = 1e2,1e4", f"p_grid = {grid}"))
            code, out, _ = run(capsys, "sweep", "--config", str(cfg))
            assert code == 0
            outs.append(re.sub(r"wall_time_s = \S+", "", out))
        assert outs[0] == outs[1]

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SWEEP_CONFIG + "wibble = 3\n")
        code, _, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == 2
        assert "wibble" in err

    def test_suspect_gains_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CONFIG.replace("h = 1.4142135623730951,1", "h = 0.5000000000001,1"))
        code, _, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == 2
        assert "gamma status is suspect" in err

    def test_ambiguous_gains_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CONFIG.replace("h = 1.4142135623730951,1", "h = 1,1"))
        code, _, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == 2
        assert "gamma status is violated" in err

    def test_gamma_failing_at_a_later_grid_point_names_it(self, tmp_path, capsys):
        # Q = 1 holds at P = 100, Q = 2 collides at P = 10^4
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("k = 2\nepsilon = 0.5\np_grid = 1e2,1e4\ntrials = 1\nh = 1.5,1\nh_e = 1,1\n")
        code, _, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == 2
        assert err == "error: cannot hard-decode: gamma status is violated [grid point P=10000.0]\n"

    def test_seed_fixes_bytes(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CONFIG.replace("variance = 0", "variance = 1"))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, "sweep", "--config", str(cfg), "--seed", "3", "--out", str(a))[0] == 0
        assert run(capsys, "sweep", "--config", str(cfg), "--seed", "3", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()


class TestBlockAndLeakage:
    def test_block_runs(self, tmp_path, capsys):
        cfg = tmp_path / "block.cfg"
        cfg.write_text(SWEEP_CONFIG + "n = 4\n")
        out_path = tmp_path / "block.csv"
        code, _, _ = run(capsys, "block", "--config", str(cfg), "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert row["bler"] == "0"
        assert int(row["B"]) >= 1

    def test_leakage_runs(self, tmp_path, capsys):
        cfg = tmp_path / "leak.cfg"
        cfg.write_text(SWEEP_CONFIG)
        out_path = tmp_path / "leak.csv"
        code, _, _ = run(capsys, "leakage", "--config", str(cfg), "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert float(row["mi_bits"]) == pytest.approx(float(row["sum_entropy_bits"]))


    @pytest.mark.parametrize("command,layout", [("sweep", 4), ("block", 5), ("leakage", 3)])
    def test_meta_records_stream_layout(self, tmp_path, capsys, command, layout):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SWEEP_CONFIG + "n = 4\n")
        out_path = tmp_path / "run.csv"
        assert run(capsys, command, "--config", str(cfg), "--out", str(out_path))[0] == 0
        meta = (tmp_path / "run.csv.meta").read_text().splitlines()
        assert f"stream_layout = {layout}" in meta


    @pytest.mark.parametrize(
        "command,p_grid,trials,n,message",
        [
            ("block", "10", 10**8 + 1, 4, "error: 100000001 trials exceed cap 100000000"),
            ("sweep", "10,20", 5 * 10**7 + 1, 4,  # trials over all grid points
             "error: 100000002 trials exceed cap 100000000"),
            ("block", "10", 10**30, 4, f"error: {10**30} trials exceed cap"),
            # Q = B = 1 and L = 65,536 at P = 10: 5.2 GB of tables at n = 10^4
            ("block", "10", 1, 10**4, "error: codebooks need K*B*L*n = 1310720000 cells"),
            ("block", "10", 1, 10**5, "error: codebooks need K*B*L*n = 13107200000 cells"),
            ("block", "10", 1, 10**30, f"error: block length n = {10**30} needs over"),
            ("block", "10", 1, 10**400, f"error: block length n = {10**400} needs over"),
            # Q = 1568: M = 9,840,769 points, within ENUMERATION_CAP
            ("block", "9e31", 10, 40, "error: block length n = 40 needs over"),
        ],
        ids=["block-trials", "sweep-trials", "block-trials-1e30", "n-1e4", "n-1e5", "n-1e30",
             "n-1e400", "near-cap-n40"],
    )
    def test_run_past_cap_exits_3_up_front(self, tmp_path, capsys, monkeypatch, command, p_grid,
                                           trials, n, message):
        # refused before any constellation is built or codebook or trial drawn
        def no_draw(*args, **kwargs):
            raise AssertionError("a constellation was built or a codebook or a trial drawn")

        monkeypatch.setattr("secmac.simulate.received_constellation", no_draw)
        monkeypatch.setattr("secmac.simulate.build_codebook", no_draw)
        monkeypatch.setattr("secmac.simulate.stream", no_draw)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"k = 2\nepsilon = 0.5\np_grid = {p_grid}\ntrials = {trials}\nn = {n}\n"
            "h = 1.4142135623730951,1\nh_e = 1,1\n"
        )
        code, _, err = run(capsys, command, "--config", str(cfg))
        assert code == 3
        assert err.startswith(message) and err.count("\n") == 1

    @pytest.mark.parametrize("k,eps,p,n", [(3, 0.3, "1e6", 20), (2, 0.5, "1e8", 40)])
    def test_block_table_past_cap_exits_3(self, tmp_path, capsys, monkeypatch, k, eps, p, n):
        def no_build(*args, **kwargs):  # refused before any constellation is built
            raise AssertionError("a constellation was built")

        monkeypatch.setattr("secmac.simulate.received_constellation", no_build)
        cfg = tmp_path / "block.cfg"
        ones = ",".join(["1"] * k)
        cfg.write_text(
            f"k = {k}\nepsilon = {eps}\np_grid = {p}\ntrials = 10\nn = {n}\n"
            f"h = {ones}\nh_e = {ones}\n"
        )
        code, _, err = run(capsys, "block", "--config", str(cfg))
        assert code == 3
        assert err.startswith("error: codebook needs B = ") and err.count("\n") == 1

    def test_block_refuses_undecodable_gains_before_any_codebook(self, tmp_path, capsys,
                                                                  monkeypatch):
        def no_codebook(*args, **kwargs):
            raise AssertionError("a codebook was drawn")

        monkeypatch.setattr("secmac.simulate.build_codebook", no_codebook)
        cfg = tmp_path / "block.cfg"
        cfg.write_text(SWEEP_CONFIG.replace("h = 1.4142135623730951,1", "h = 1,1") + "n = 4\n")
        code, out, err = run(capsys, "block", "--config", str(cfg))
        assert (code, out, err) == (2, "", "error: cannot hard-decode: gamma status is violated\n")


OUT_OPTION = ("--out", False, None, None, "write CSV here (+ .meta sidecar)")
RUN_OPTION_SURFACE = [OUT_OPTION, ("--config", True, None, None, None),
                      ("--seed", False, int, None, "master seed override")]
# each subcommand's options in parser order: (flag, required, type, default, help)
OPTION_SURFACE = {
    "params": [OUT_OPTION, ("--p-tilde", False, float, None, None),
               ("--p", False, float, None, None),
               ("--h-e", False, None, None, "comma list of eavesdropper gains"),
               ("--k", True, int, None, None), ("--eps", True, float, None, None)],
    "dmin": [OUT_OPTION, ("--gains", True, None, None, "comma list; a/b tokens are exact"),
             ("--q", True, int, None, None), ("--a", True, float, None, None)],
    "sweep": RUN_OPTION_SURFACE,
    "block": RUN_OPTION_SURFACE,
    "leakage": RUN_OPTION_SURFACE,
    "kg": [OUT_OPTION, ("--gains", True, None, None, None), ("--eps", True, float, None, None),
           ("--n-list", True, None, None, "comma list of search bounds N")],
    "region": [OUT_OPTION, ("--spec", True, None, None, "channel spec file")],
    "entropy": [OUT_OPTION, ("--k", True, int, None, None), ("--q", True, int, None, None)],
    "check": [("file", True, None, None, None)],
}


class TestOptionSurface:
    """Options exist only where a command reads them."""

    def test_each_command_has_its_options_in_order(self):
        import argparse

        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(OPTION_SURFACE)
        for name, command in sub.choices.items():
            options = [(a.option_strings[0] if a.option_strings else a.dest, a.required, a.type,
                        a.default, a.help)
                       for a in command._actions if not isinstance(a, argparse._HelpAction)]
            assert options == OPTION_SURFACE[name], name

    def test_config_keys_are_the_simconfig_fields(self):
        from dataclasses import fields

        from secmac.cli import CONFIG_KEYS
        from secmac.simulate import SimConfig, _config_keys

        assert set(CONFIG_KEYS) == {f.name.lower() for f in fields(SimConfig)}
        # so a run's sidecar, which lists every field set, lists every config key
        cfg = SimConfig(K=2, epsilon=0.5, P_grid=(2,), h=(1.5, 1), h_e=(1, 1), bin_width=1)
        assert set(_config_keys(cfg)) == set(CONFIG_KEYS)

    @pytest.mark.parametrize(
        "argv",
        [
            ("params", "--p-tilde", "1e6", "--k", "2", "--eps", "0.1", "--seed", "3"),
            ("dmin", "--gains", "1.41421356237,1", "--q", "2", "--a", "1", "--seed", "3"),
            ("kg", "--gains", "1.5", "--eps", "0.5", "--n-list", "2", "--seed", "3"),
            ("entropy", "--k", "2", "--q", "1", "--seed", "3"),
            ("region", "--spec", "adder.spec", "--seed", "3"),
            ("dmin", "--gains", "1.41421356237,1", "--q", "2", "--a", "1", "--cap", "10"),
            ("check", "--out", "x.csv", "a.csv"),
        ],
    )
    def test_no_op_flags_are_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ("dmin", "--gain", "-1,2", "--q", "1", "--a", "1"),
            ("dmin", "--gain", "1,2", "--q", "1", "--a", "1"),
            ("entropy", "--k", "2", "--q", "1", "--ou", "x.csv"),
            ("--vers",),
        ],
    )
    def test_abbreviated_options_are_refused(self, capsys, argv):
        # each option has one spelling
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage:")

    @pytest.mark.parametrize("command", ["sweep", "block", "leakage"])
    def test_meta_records_the_seed_used_as_master_seed(self, tmp_path, capsys, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SWEEP_CONFIG + "n = 4\n")
        out_path = tmp_path / "run.csv"
        argv = (command, "--config", str(cfg), "--seed", "3", "--out", str(out_path))
        assert run(capsys, *argv)[0] == 0
        meta = (tmp_path / "run.csv.meta").read_text().splitlines()
        assert "master_seed = 3" in meta
        assert not [line for line in meta if line.startswith("seed")]


class TestParserReuse:
    """The parser is built once per process; each call parses afresh."""

    def test_repeated_calls_give_identical_output(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CONFIG)
        out_path = tmp_path / "sweep.csv"
        argv = ("sweep", "--config", str(cfg), "--seed", "3", "--out", str(out_path))
        csvs = []
        for _ in range(2):
            assert run(capsys, *argv)[0] == 0
            csvs.append(out_path.read_text())
        assert csvs[0] == csvs[1]
        assert run(capsys, "entropy", "--k", "2", "--q", "1") == run(
            capsys, "entropy", "--k", "2", "--q", "1"
        )

    def test_bad_argv_after_good_exits_2(self, capsys):
        assert run(capsys, "entropy", "--k", "2", "--q", "1")[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(["entropy", "--k", "2"])
        assert exc.value.code == 2
        assert "--q" in capsys.readouterr().err
        assert run(capsys, "entropy", "--k", "2", "--q", "1")[0] == 0


class TestKgRegionEntropy:
    def test_kg_profile(self, tmp_path, capsys):
        out_path = tmp_path / "kg.csv"
        code, out, _ = run(
            capsys,
            "kg",
            "--gains", "1.4142135623730951",
            "--eps", "0.5",
            "--n-list", "2,4,12",
            "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "N,m,m_scaled"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(3 - 2 * math.sqrt(2), rel=1e-12)
        assert "c_hat" in out

    def test_region(self, tmp_path, capsys):
        spec = tmp_path / "adder.spec"
        spec.write_text(ADDER_SPEC)
        out_path = tmp_path / "region.csv"
        code, out, _ = run(capsys, "region", "--spec", str(spec), "--out", str(out_path))
        assert code == 0
        assert "sum_bound = 1.5" in out
        lines = out_path.read_text().splitlines()
        assert lines[0] == "subset_bitmask,bound_bits"
        rows = dict(line.split(",") for line in lines[1:])
        assert float(rows["1"]) == 1.0
        assert float(rows["2"]) == 1.0
        assert float(rows["3"]) == 1.5

    def test_entropy(self, capsys):
        code, out, _ = run(capsys, "entropy", "--k", "2", "--q", "1")
        assert code == 0
        assert "2.1971597" in out


class TestCheck:
    def test_emitted_csv_passes(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CONFIG)
        out_path = tmp_path / "sweep.csv"
        run(capsys, "sweep", "--config", str(cfg), "--out", str(out_path))
        code, out, _ = run(capsys, "check", str(out_path))
        assert code == 0
        assert "zero diffs" in out

    def test_all_command_csvs_pass(self, tmp_path, capsys):
        spec = tmp_path / "adder.spec"
        spec.write_text(ADDER_SPEC)
        cfg = tmp_path / "cfg"
        cfg.write_text(SWEEP_CONFIG + "n = 4\n")
        outputs = []
        for argv in (
            ["params", "--p-tilde", "1e6", "--k", "2", "--eps", "0.1"],
            ["dmin", "--gains", "1.41421356237,1", "--q", "2", "--a", "1"],
            ["sweep", "--config", str(cfg)],
            ["block", "--config", str(cfg)],
            ["leakage", "--config", str(cfg)],
            ["kg", "--gains", "1.41421356237", "--eps", "0.5", "--n-list", "2,4"],
            ["region", "--spec", str(spec)],
            ["entropy", "--k", "2", "--q", "1"],
        ):
            path = tmp_path / f"{argv[0]}.csv"
            assert run(capsys, *argv, "--out", str(path))[0] == 0
            outputs.append(path)
        for path in outputs:
            assert run(capsys, "check", str(path))[0] == 0

    def test_tampered_file_fails(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        for text, why in (
            ("a,b\n0.10000000000000000555,2\n", "line 2"),
            ("a,b\n1,2", "no final newline"),
            ("a,b\r\n1,2\r\n", "a line break other than \\n"),  # read untranslated
            ("a,b\r1,2\r", "a line break other than \\n"),
            ("a,b\n1,2,3\n", "line 2 has 3 cells, the header 2"),
            ("a,b\n1,2\n\n", "line 3 has 0 cells, the header 2"),  # an empty line
            ("\ufeffa,b\n1,2\n", "header cell '\\ufeffa' is not an identifier"),  # a UTF-8 BOM
        ):
            path.write_bytes(text.encode())
            code, out, err = run(capsys, "check", str(path))
            assert code == 2
            assert why in err
            assert err.startswith(f"error: {path}: ") and out == ""

    def test_differing_line_shows_file_and_canonical(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n0.10000000000000000555,2\n")
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert err == (f"error: {path}: line 3 differs\n"
                       "  file:      0.10000000000000000555,2\n"
                       "  canonical: 0.10000000000000001,2\n")

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run(capsys, "check", "/nonexistent/file.csv")
        assert code == 2


@pytest.mark.parametrize(
    "where,why",
    [("missing/x.csv", "No such file"), ("", "Is a directory"), ("x.csv.meta", "Is a directory")],
)
def test_unwritable_out_exits_2(tmp_path, capsys, where, why):
    # `where` cannot be written; when it is the sidecar (a directory), the CSV
    # written before it must not be left without it
    blocked = out = tmp_path / where
    if where.endswith(".meta"):
        blocked.mkdir()
        out = blocked.with_suffix("")
    code, _, err = run(capsys, "dmin", "--gains", "1.5,1", "--q", "1", "--a", "1", "--out", str(out))
    assert code == 2
    assert err.startswith(f"error: cannot write {blocked}: {why}") and err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("kind", ["file", "symlink"])
def test_failed_out_keeps_what_it_did_not_create(tmp_path, capsys, kind):
    # the sidecar path is a directory, so the write fails after the CSV's open
    target = tmp_path / "target.csv"
    target.write_text("old\n")
    out = tmp_path / "x.csv"
    if kind == "symlink":
        out.symlink_to(target)
    else:
        out.write_text("old\n")
    (tmp_path / "x.csv.meta").mkdir()
    code, _, err = run(capsys, "dmin", "--gains", "1.5,1", "--q", "1", "--a", "1", "--out", str(out))
    assert code == 2 and err.startswith("error: cannot write ")
    assert out.exists() and out.is_symlink() == (kind == "symlink") and target.exists()
    assert out.read_text() == target.read_text() == "old\n"  # opened, never truncated


@pytest.mark.parametrize("command", ["dmin", "entropy", "sweep"])
def test_empty_out_exits_2(tmp_path, capsys, monkeypatch, command):
    # "" names no file; the command is refused before it runs or prints
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.cfg").write_text(SWEEP_CONFIG)
    argv = {
        "dmin": ["--gains", "1.5,1", "--q", "1", "--a", "1"],
        "entropy": ["--k", "2", "--q", "1"],
        "sweep": ["--config", "s.cfg"],
    }[command]
    code, out, err = run(capsys, command, *argv, "--out", "")
    assert (code, out, err) == (2, "", "error: --out needs a file name\n")
    assert [p.name for p in tmp_path.iterdir()] == ["s.cfg"]


@pytest.mark.parametrize("command", ["dmin", "kg"])
def test_sidecar_records_stripped_gain_tokens(tmp_path, capsys, command):
    # whitespace around a token, a line break included, is not part of the gain
    out = tmp_path / "x.csv"
    argv = {"dmin": ["--q", "1", "--a", "1"], "kg": ["--eps", "0.5", "--n-list", "2"]}[command]
    assert run(capsys, command, "--gains", " 1.5,\n1 ", *argv, "--out", str(out))[0] == 0
    assert key_values(read_text(f"{out}.meta"), f"{out}.meta")["gains"][1] == "1.5,1"


@pytest.mark.parametrize("argv", [
    ["dmin", "--gains", "1\n/2,1", "--q", "1", "--a", "1"],  # int() reads "1\n" as 1
    ["region", "--spec", "adder\n.spec"],
    ["region", "--spec", "adder\r.spec"],
])
def test_sidecar_value_with_line_break_exits_2(tmp_path, capsys, monkeypatch, argv):
    # such a value would split its 'key = value' line, so nothing is written
    monkeypatch.chdir(tmp_path)
    for name in ("adder\n.spec", "adder\r.spec"):
        (tmp_path / name).write_text(ADDER_SPEC)
    code, _, err = run(capsys, *argv, "--out", "x.csv")
    key = {"dmin": "gains", "region": "spec"}[argv[0]]
    assert code == 2
    assert err == f"error: the .meta value of {key!r} does not read back as written: {argv[2]!r}\n"
    assert not (tmp_path / "x.csv").exists() and not (tmp_path / "x.csv.meta").exists()


@pytest.mark.parametrize("argv", [
    ["dmin", "--gains", "1\n/2,1", "--q", "1", "--a", "1", "--out", "x.csv"],
    ["kg", "--gains", "1.5", "--eps", "0.5", "--n-list", "2,4", "--out", "x2.csv"],
    ["region", "--spec", "a#b.spec", "--out", "x.csv"],  # '#' would start a comment
], ids=["dmin-line-break", "kg-meta-directory", "region-hash"])
def test_refused_output_prints_and_writes_nothing(tmp_path, capsys, monkeypatch, argv):
    # a command's summary leaves only once its sidecar reads back and both files are written
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a#b.spec").write_text(ADDER_SPEC)
    (tmp_path / "x2.csv.meta").mkdir()
    before = sorted(tmp_path.iterdir())
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == before


# spec file names and gain lists with whitespace (line breaks among it) at
# their ends, around numbers and before a '/'; str.strip removes all of it
_SPACE = st.text(st.sampled_from(" \t\n\r\x0b\x1c\x85\u2028"), max_size=2)
SPEC_NAMES = st.one_of(
    st.text(st.sampled_from("aé.="), min_size=1, max_size=4),
    st.tuples(_SPACE, st.text(st.sampled_from("aé.=# "), min_size=1, max_size=4), _SPACE).map(
        "".join),
).filter(lambda name: name not in (".", ".."))
GAIN_TEXT = st.lists(
    st.tuples(_SPACE, st.sampled_from(["1", "3", "1.5", "#"]), _SPACE, st.sampled_from(["", "/2"])),
    min_size=1, max_size=3,
).map(lambda tokens: ",".join("".join(token) for token in tokens))


@settings(max_examples=300, deadline=None)
@given(drawn=st.one_of(st.tuples(st.just("region"), SPEC_NAMES),
                       st.tuples(st.just("dmin"), GAIN_TEXT)))
@example(drawn=("region", "a#b.spec"))
@example(drawn=("region", " adder.spec "))
@example(drawn=("dmin", "1 /2,1"))
@example(drawn=("dmin", "1\n/2,1"))
def test_sidecar_reads_back_or_nothing_is_output(tmp_path_factory, drawn):
    # the run writes a sidecar whose fields read back as emitted, or it
    # prints and writes nothing
    command, text = drawn
    where = tmp_path_factory.mktemp("readback")
    if command == "region":
        (where / text).write_text(ADDER_SPEC)
        argv = ["region", f"--spec={text}"]
    else:
        argv = ["dmin", f"--gains={text}", "--q", "1", "--a", "1"]
    before = sorted(where.iterdir())
    with contextlib.chdir(where), mock.patch("secmac.cli.emit", wraps=cli.emit) as emit:
        code, out, err, _ = run_quietly(argv + ["--out", "x.csv"])
    if code:
        assert (code, out) == (2, ""), (argv, err)
        assert sorted(where.iterdir()) == before
        return
    fields = {k: str(v) for k, v in emit.call_args.kwargs.items()}
    if command == "region":
        assert fields == {"spec": text}
    meta = where / "x.csv.meta"
    back = {k: v for k, (_, v) in key_values(read_text(meta), meta).items()}
    assert back.pop("wall_time_s")
    assert back == {"command": command, "version": __version__, **fields}


class _FullStream(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_full_stdout_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _FullStream())
    code = main(["entropy", "--k", "2", "--q", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: cannot write stdout: No space left on device\n"


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_pipe_exits_2(unbuffered):
    # a one-page pipe, closed after the first line of a 26 kB CSV: the writer
    # meets a broken pipe, and the interpreter's final flush must print nothing;
    # an unbuffered stdout, whose write to the pipe can end short, exits 2 too
    read_fd, write_fd = os.pipe()
    fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
    n_list = ",".join(map(str, range(1, 3001)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    proc = subprocess.Popen(
        [sys.executable, "-m", "secmac.cli", "kg", "--gains", "1.5", "--eps", "0.5",
         "--n-list", n_list],
        stdout=write_fd, stderr=subprocess.PIPE, env=env,
    )
    os.close(write_fd)
    with open(read_fd, "rb", buffering=0) as pipe:
        assert pipe.readline()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert err.decode() == "error: cannot write stdout: Broken pipe\n"


class TestNonFiniteAndNegativeInputs:
    """Inputs with no finite value, or a negative seed, exit 2 with one line."""

    def check_exit_2(self, capsys, *argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("grid", ["1e2,nan", "1e2,inf"])
    def test_sweep_power_grid(self, tmp_path, capsys, grid):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CONFIG.replace("p_grid = 1e2,1e4", f"p_grid = {grid}"))
        self.check_exit_2(capsys, "sweep", "--config", str(cfg))

    @pytest.mark.parametrize("p_tilde", ["nan", "inf"])
    def test_params_p_tilde(self, capsys, p_tilde):
        self.check_exit_2(capsys, "params", "--p-tilde", p_tilde, "--k", "2", "--eps", "0.1")

    def test_kg_nan_gain(self, capsys):
        self.check_exit_2(capsys, "kg", "--gains", "nan", "--eps", "0.5", "--n-list", "2,4")

    @pytest.mark.parametrize("eps", ["nan", "inf", "1e11"])
    def test_kg_epsilon(self, capsys, eps):
        self.check_exit_2(capsys, "kg", "--gains", "1.5", "--eps", eps, "--n-list", "2,4")

    @pytest.mark.parametrize("n_list", ["2,x", "2,1/2", "nan", "2,4.0"])
    def test_kg_malformed_n_token(self, capsys, n_list):
        self.check_exit_2(capsys, "kg", "--gains", "1.5", "--eps", "0.5", "--n-list", n_list)

    @pytest.mark.parametrize(
        "argv",
        [
            ("kg", "--gains", f"{10**400}/1,1", "--eps", "0.5", "--n-list", "2"),
            ("params", "--p", "10", "--h-e", f"{10**400}/1,1", "--k", "2", "--eps", "0.1"),
            ("dmin", "--gains", f"0,1/{10**400}", "--q", "1", "--a", "1"),  # last gain -> 0.0
            ("params", "--p-tilde", "10", "--k", str(10**400), "--eps", "0.1"),
        ],
    )
    def test_value_outside_float_range(self, capsys, argv):
        self.check_exit_2(capsys, *argv)

    def test_block_negative_seed(self, tmp_path, capsys):
        cfg = tmp_path / "block.cfg"
        cfg.write_text(SWEEP_CONFIG + "n = 4\n")
        self.check_exit_2(capsys, "block", "--config", str(cfg), "--seed", "-1")

    @pytest.mark.parametrize("gains", [f"{10**400}/1,1", f"{10**400}/1,1/1"])
    def test_dmin_exact_gain_past_float_range(self, capsys, gains):
        self.check_exit_2(capsys, "dmin", "--gains", gains, "--q", "1", "--a", "1")


class TestInputFileContract:
    """Inputs that once raised, or answered silently, now exit 2 or 3 with
    one error line and no RuntimeWarning."""

    def check(self, argv, code):
        got, _, err, caught = run_quietly(argv)
        assert got == code, err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert RuntimeWarning not in caught

    @pytest.mark.parametrize(
        "old,new",
        [
            ("k = 2", "k = x"),
            ("p_x_given_u_1 = 1 0 0 1", "p_x_given_u_1 = 1 0 0"),
            ("p_yz_given_x = 1 0 0", "p_yz_given_x = nan 0 0"),
            ("y_size = 3\nz_size = 1", "y_size = -3\nz_size = -1"),
        ],
    )
    def test_region_spec(self, tmp_path, old, new):
        spec = tmp_path / "bad.spec"
        spec.write_text(ADDER_SPEC.replace(old, new))
        self.check(["region", "--spec", str(spec)], 2)

    def test_region_missing_spec(self, tmp_path):
        self.check(["region", "--spec", str(tmp_path / "absent.spec")], 2)

    @pytest.mark.parametrize("argv", [["sweep", "--config"], ["check"]])
    def test_undecodable_file(self, tmp_path, argv):
        path = tmp_path / "binary"
        path.write_bytes(b"\xff\xfek = 2\n")
        self.check(argv + [str(path)], 2)

    @pytest.mark.parametrize("extra", ["bin_width = 1e-300", "variance = 1e308"])
    def test_leakage_bin_index_overflow(self, tmp_path, extra):
        cfg = tmp_path / "leak.cfg"
        cfg.write_text(f"k = 2\nepsilon = 0.5\np_grid = 1e4\nleakage_samples = 1000\n{extra}\n")
        self.check(["leakage", "--config", str(cfg)], 2)

    @pytest.mark.parametrize("extra", ["gains_low = nan", "gains_high = inf"])
    def test_non_finite_gain_range(self, tmp_path, extra):
        # the sampled gain range is fixed, so its keys are unknown
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"k = 2\nepsilon = 0.5\np_grid = 1e4\ntrials = 10\n{extra}\n")
        self.check(["sweep", "--config", str(cfg)], 2)
        assert "unknown key" in run_quietly(["sweep", "--config", str(cfg)])[2]

    @pytest.mark.parametrize(
        "command,gains",
        [
            ("params", "1,nan"),
            ("params", "inf,1"),
            ("params", "1,-inf"),
            ("params", "-inf,1"),
            ("sweep", "h = 1.4142135623730951,1\nh_e = 1,inf"),
            ("sweep", "h = 1,5e-324\nh_e = 1,2"),  # the last ratio underflows to 0
            ("leakage", "h = inf,1\nh_e = 1,1"),
        ],
    )
    def test_non_finite_gains(self, tmp_path, command, gains):
        if command == "params":
            argv = ["params", "--p", "10", "--h-e", gains, "--k", "2", "--eps", "0.1"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"k = 2\nepsilon = 0.5\np_grid = 1e4\ntrials = 10\n{gains}\n")
            argv = [command, "--config", str(cfg)]
        self.check(argv, 2)

    @pytest.mark.parametrize("command", ["sweep", "block", "leakage"])
    def test_k_no_run_can_finish(self, tmp_path, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"k = {10**30}\nepsilon = 0.5\np_grid = 1e4\ntrials = 10\nn = 2\n")
        self.check([command, "--config", str(cfg)], 3)

    def test_leakage_k40_still_runs(self, tmp_path, capsys):
        cfg = tmp_path / "leak.cfg"
        cfg.write_text("k = 40\nepsilon = 0.5\np_grid = 1e4\nleakage_samples = 1000\n")
        assert run(capsys, "leakage", "--config", str(cfg))[0] == 0

    def test_entropy_work_cap(self):
        self.check(["entropy", "--k", "1000000", "--q", "1"], 3)

    def test_leakage_symbol_bound_past_int64(self, tmp_path, monkeypatch):
        # K*Q passes 2^63, past the int64 tuples; the exact entropy's
        # composition cap refuses it before any sample is drawn
        def no_transmit(*args, **kwargs):
            raise AssertionError("samples were transmitted")

        monkeypatch.setattr("secmac.simulate.transmit", no_transmit)
        cfg = tmp_path / "leak.cfg"
        cfg.write_text("k = 2\nepsilon = 0.1\np_grid = 1e308\nh = 1.5,1\nh_e = 1,1\n")
        code, _, err, _ = run_quietly(["leakage", "--config", str(cfg)])
        Q = select_params(1e308, 2, 0.1).Q
        assert code == 3 and 2 * Q >= 2**63
        assert err == (
            f"error: composition counts need K * (2KQ+1) = {2 * (4 * Q + 1)} cells, cap 10000000\n"
        )

    def test_leakage_sum_entropy_cap_before_the_draw(self, tmp_path, monkeypatch):
        def no_transmit(*args, **kwargs):
            raise AssertionError("samples were transmitted")

        monkeypatch.setattr("secmac.simulate.transmit", no_transmit)
        cfg = tmp_path / "leak.cfg"
        cfg.write_text(
            "k = 2\nepsilon = 0.1\np_grid = 1e30\nh = 1,1\nh_e = 1,1\n"
            "variance = 1\nleakage_samples = 100000\n"
        )
        code, _, err, _ = run_quietly(["leakage", "--config", str(cfg)])
        assert code == 3
        assert err == "error: composition counts need K * (2KQ+1) = 21461562 cells, cap 10000000\n"

    def test_float_sums_past_range_warn_nothing(self):
        self.check(["dmin", "--gains", "0,1e308,2.5", "--q", "5", "--a", "0.1"], 2)
        code, _, _, caught = run_quietly(["kg", "--gains", "0,1e308", "--eps", "0.5", "--n-list", "2"])
        assert code == 0 and RuntimeWarning not in caught


# Tokens for the argv grammar.  Integer tokens are either small or far past
# every cap, so no drawn command starts a large search.
BAD = ["nan", "inf", "-inf", "", "abc", "1/0", "x/2", "1e400", str(10**400)]


def pick(good):
    """Mostly well-formed tokens, sometimes a malformed one."""
    return st.one_of(st.sampled_from(good), st.sampled_from(good), st.sampled_from(BAD))


def listed(good):
    return st.lists(pick(good), min_size=1, max_size=3).map(",".join)


SMALL_OR_HUGE = ["-1", "0", "1", "2", "3", "5", str(10**30), str(10**400)]
INTS = pick(SMALL_OR_HUGE)
REALS = pick(["-1", "0", "0.1", "0.5", "0.999", "1.5", "10", "1e6", "1e11", "3/4"])
GAINS = listed(["0", "-1", "1", "0.5", "1.4142135623730951", "2.5", "3/4", "-2/3", "7/1",
                "1e308", f"{10**400}/1", f"1/{10**400}", "1,nan", "-inf,1"])
OPTIONS = {
    "kg": {"--gains": GAINS, "--eps": REALS, "--n-list": listed(SMALL_OR_HUGE)},
    "entropy": {"--k": INTS, "--q": INTS},
    "dmin": {"--gains": GAINS, "--q": INTS, "--a": REALS},
    "params": {"--p-tilde": REALS, "--p": REALS, "--h-e": GAINS, "--k": INTS, "--eps": REALS},
}


@st.composite
def argvs(draw):
    """(argv, whether an option name in it is abbreviated)."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    options = dict(OPTIONS[command])
    if command == "params" and draw(st.integers(0, 3)):  # usually one power source
        for flag in draw(st.sampled_from([("--p-tilde",), ("--p", "--h-e")])):
            del options[flag]
    argv, abbreviated = [command], False
    for flag, tokens in options.items():
        if draw(st.integers(0, 5)):  # sometimes leave an option out
            if len(flag) > 4 and not draw(st.integers(0, 7)):  # sometimes abbreviate it
                flag, abbreviated = flag[:-1], True
            argv += [flag, draw(tokens)]
    return argv, abbreviated


def reads_as_gains(token):
    """Whether ``token`` is a gain list that the parser must accept."""
    try:
        comma_list(token, parse_gain_token)
    except ParameterError:
        return False
    return True


def run_quietly(argv):
    """(exit code, stdout, stderr, warnings) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with (
        warnings.catch_warnings(record=True) as caught,
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv itself
            code = exc.code
    return code, out.getvalue(), err.getvalue(), [w.category for w in caught]


def assert_contract(argv, code, out, err, caught):
    assert code in (0, 2, 3), (argv, err)
    assert "Traceback" not in err
    assert RuntimeWarning not in caught, argv
    if code and not err.startswith("usage:"):
        assert err.startswith("error: ") and err.count("\n") == 1, err
    if code == 0:  # no NaN in the CSV part turns silently into an answer
        csv = out.split("# secmac metadata v1")[0]
        assert "nan" not in csv.lower(), (argv, csv)


# Config-file grammar: per key, (valid values, invalid values).  Huge
# integers are drawn only for keys that stay cheap or are refused before any
# work, so every drawn run is short.
HUGE = str(10**30)
FILE_BAD = ["nan", "inf", "-inf", "", "abc", "1e400", "1e-300"]
CONFIG_VALUES = {
    "k": (["2"], ["3", "0", "-1", "2.5", HUGE]),
    "epsilon": (["0.1", "0.5"], ["0", "1"]),
    "p_grid": (["1e2", "1e4", "1e2,1e4", "1e3,1e5,1e7"], ["1e4,1e2", "0.5", "1e308", "1e2,nan"]),
    "trials": (["1", "40"], ["0", "-5", HUGE]),
    "n": (["1", "2", "3"], ["0", "-2", HUGE]),
    "master_seed": (["0", "7", HUGE], ["-1"]),
    "variance": (["0", "1", "4", "1e308"], ["-1"]),
    "h": (["1.4142135623730951,1", "3/4,1", "1e-300,1", "1e308,1"],
          ["1,1", "0,1", "0.5,1,2.5", "1,inf", "1,nan", "-inf,1"]),
    "h_e": (["1,1", "2,1", "1e-300,1", "1e308,1"], ["0,1", "1,0.5,1", "1,inf", "1,nan", "-inf,1"]),
    "bin_width": (["0.1", "1", "1e-300"], ["0", "-1"]),
    "leakage_samples": (["1000", "1500", HUGE], ["999"]),
}
# Keys that once set a value now fixed: each must exit 2 as unknown.
REMOVED_KEYS = ("gains_seed", "gains_low", "gains_high", "cap")
CONFIG_REQUIRED = ("k", "epsilon", "p_grid", "trials", "n")
SPEC_P_U = (["0.5 0.5", "0.25 0.75"], ["1", "0.5 0.6", "-0.5 1.5", "0.5 nan"])
SPEC_P_XU = (["1 0 0 1", "0.5 0.5 0.5 0.5"], ["1 0 0", "1 0", "1 0 0 inf"])
SPEC_VALUES = {
    "k": (["2"], ["1", "0", "x", HUGE]),
    "u_sizes": (["2 2"], ["1 2", "2", "0 2", "-1 2", f"{HUGE} 2"]),
    "x_sizes": (["2 2"], ["2 1", "2 2 2", "-2 2"]),
    "y_size": (["3"], ["2", "0", "-3", HUGE]),
    "z_size": (["1"], ["2", "-1"]),
    "p_u_1": SPEC_P_U,
    "p_u_2": SPEC_P_U,
    "p_x_given_u_1": SPEC_P_XU,
    "p_x_given_u_2": SPEC_P_XU,
    "p_yz_given_x": (["1 0 0  0 1 0  0 1 0  0 0 1", "0.5 0.5 0  0 1 0  0 1 0  0 0 1"],
                     ["1 0 0  0 1 0  0 1 0  0 0", "1 0 0  0 1 0  0 1 0  nan 0 1"]),
}
FAULTS = ("invalid", "bad token", "missing", "twice")


@st.composite
def key_value_files(draw, values, required):
    """Text of a key = value file with at most two faults: a key given an
    invalid or malformed value, left out or given twice.  Keys that are
    not required are left out half the time, h_e together with h."""
    faults = dict(draw(st.lists(st.tuples(st.sampled_from(list(values)), st.sampled_from(FAULTS)),
                                max_size=2)))
    lines, left_out = [], {}
    for key, (valid, invalid) in values.items():
        fault = faults.get(key)
        if key not in required:
            left_out[key] = left_out["h"] if key == "h_e" else draw(st.booleans())
        if fault == "missing" or left_out.get(key):
            continue
        pool = {"invalid": invalid, "bad token": FILE_BAD}.get(fault, valid)
        for _ in range(2 if fault == "twice" else 1):
            lines.append(f"{key} = {draw(st.sampled_from(pool))}")
    return "\n".join(draw(st.permutations(lines))) + "\n"


@st.composite
def file_argvs(draw):
    """(argv without the path, file text, whether it must exit 2) for sweep,
    block, leakage or region; a config sometimes sets a removed key."""
    command = draw(st.sampled_from(["sweep", "block", "leakage", "region"]))
    if command == "region":
        spec = draw(key_value_files(SPEC_VALUES, tuple(SPEC_VALUES)))
        return ["region", "--spec"], spec, False
    text = draw(key_value_files(CONFIG_VALUES, CONFIG_REQUIRED))
    removed = draw(st.sampled_from((None, None) + REMOVED_KEYS))
    if removed:
        text += f"{removed} = {draw(st.sampled_from(['0', '2', '10', '10000000']))}\n"
    return [command, "--config"], text, removed is not None


class TestArgvGrammar:
    """Any argv for the exact commands, and any config or spec file for the
    file commands, exits 0, 2 or 3 with no traceback and no RuntimeWarning."""

    @settings(max_examples=300, deadline=None)
    @given(drawn=argvs())
    # sum|g| past the float range at Q = 0 warned in numpy's reduce
    @example(drawn=(["dmin", "--gains", "1e308,1e308,-1", "--q", "0", "--a", "0.1"], False))
    def test_exit_code_contract(self, drawn):
        argv, abbreviated = drawn
        code, out, err, caught = run_quietly(argv)
        assert_contract(argv, code, out, err, caught)
        if abbreviated:
            assert code == 2 and err.startswith("usage:"), (argv, err)
        for flag, value in zip(argv, argv[1:]):
            if flag in ("--gains", "--h-e") and reads_as_gains(value):
                assert f"argument {flag}: expected one argument" not in err, argv

    @settings(max_examples=300, deadline=None)
    @given(drawn=file_argvs())
    def test_file_commands_exit_code_contract(self, tmp_path_factory, drawn):
        argv, text, must_fail = drawn
        path = tmp_path_factory.mktemp("grammar") / "input.txt"
        path.write_text(text)
        code, out, err, caught = run_quietly(argv + [str(path)])
        assert_contract((argv, text), code, out, err, caught)
        if must_fail:
            assert code == 2, (text, err)

    # Every invalid value, alone in a tiny valid config: a value the drawn
    # files reach only through a rare combination of faults is still run.
    @pytest.mark.parametrize("command", ["sweep", "block", "leakage"])
    @pytest.mark.parametrize("key, value", [
        (key, value) for key, (_, invalid) in CONFIG_VALUES.items() for value in invalid
    ])
    def test_each_invalid_config_value(self, tmp_path, command, key, value):
        config = {"k": "2", "epsilon": "0.5", "p_grid": "1e2", "trials": "1", "n": "1"}
        if key == "h_e":  # h_e is read only beside h
            config["h"] = "1.4142135623730951,1"
        config[key] = value
        path = tmp_path / "input.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
        code, out, err, caught = run_quietly([command, "--config", str(path)])
        assert_contract((command, key, value), code, out, err, caught)
