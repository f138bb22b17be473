import contextlib
import io
import math
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secmac import ParameterError
from secmac.cli import main, parse_gain_list

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
        code, out, _ = run(capsys, "dmin", "--gains", "1/2,1", "--q", "2", "--a", "1")
        assert code == 0
        assert "gamma = violated" in out
        assert "d_min = 0" in out

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

    def test_bad_gain_token_exits_2(self, capsys):
        code, _, err = run(capsys, "dmin", "--gains", "x,y", "--q", "1", "--a", "1")
        assert code == 2

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

    def test_missing_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("k = 2\nepsilon = 0.5\n")
        code, _, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == 2
        assert "p_grid" in err and "trials" in err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SWEEP_CONFIG + "wibble = 3\n")
        code, _, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == 2
        assert "wibble" in err

    def test_ambiguous_gains_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CONFIG.replace("h = 1.4142135623730951,1", "h = 1,1"))
        code, _, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == 2
        assert "gamma status is violated" in err

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


    @pytest.mark.parametrize("command,layout", [("sweep", 1), ("block", 2), ("leakage", 1)])
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
        ],
        ids=["block-trials", "sweep-trials", "block-trials-1e30", "n-1e4", "n-1e5", "n-1e30",
             "n-1e400"],
    )
    def test_run_past_cap_exits_3_up_front(self, tmp_path, capsys, monkeypatch, command, p_grid,
                                           trials, n, message):
        # refused before any codebook or trial is drawn
        def no_draw(*args, **kwargs):
            raise AssertionError("a codebook or a trial was drawn")

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
    def test_block_table_past_cap_exits_3(self, tmp_path, capsys, k, eps, p, n):
        cfg = tmp_path / "block.cfg"
        ones = ",".join(["1"] * k)
        cfg.write_text(
            f"k = {k}\nepsilon = {eps}\np_grid = {p}\ntrials = 10\nn = {n}\n"
            f"h = {ones}\nh_e = {ones}\n"
        )
        code, _, err = run(capsys, "block", "--config", str(cfg))
        assert code == 3
        assert err.startswith("error: codebook needs B = ") and err.count("\n") == 1


class TestOptionSurface:
    """Options exist only where a command reads them."""

    def test_config_keys_are_the_simconfig_fields(self):
        from dataclasses import fields

        from secmac.cli import CONFIG_KEYS
        from secmac.simulate import SimConfig

        assert sorted(CONFIG_KEYS) == sorted(f.name.lower() for f in fields(SimConfig))

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
        path.write_text("a,b\n0.10000000000000000555,2\n")
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert "line 2" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run(capsys, "check", "/nonexistent/file.csv")
        assert code == 2


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

    def test_leakage_symbol_bound_past_int64(self, tmp_path):
        cfg = tmp_path / "leak.cfg"
        cfg.write_text("k = 2\nepsilon = 0.1\np_grid = 1e308\nh = 1.5,1\nh_e = 1,1\n")
        self.check(["leakage", "--config", str(cfg)], 3)

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
        parse_gain_list(token)
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


def assert_contract(argv, code, err, caught):
    assert code in (0, 2, 3), (argv, err)
    assert "Traceback" not in err
    assert RuntimeWarning not in caught, argv
    if code and not err.startswith("usage:"):
        assert err.startswith("error: ") and err.count("\n") == 1, err


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
    def test_exit_code_contract(self, drawn):
        argv, abbreviated = drawn
        code, out, err, caught = run_quietly(argv)
        assert_contract(argv, code, err, caught)
        if abbreviated:
            assert code == 2 and err.startswith("usage:"), (argv, err)
        for flag, value in zip(argv, argv[1:]):
            if flag in ("--gains", "--h-e") and reads_as_gains(value):
                assert f"argument {flag}: expected one argument" not in err, argv
        if code == 0:
            assert "nan" not in out.split("# secmac metadata")[0].lower()

    @settings(max_examples=300, deadline=None)
    @given(drawn=file_argvs())
    def test_file_commands_exit_code_contract(self, tmp_path_factory, drawn):
        argv, text, must_fail = drawn
        path = tmp_path_factory.mktemp("grammar") / "input.txt"
        path.write_text(text)
        code, out, err, caught = run_quietly(argv + [str(path)])
        assert_contract((argv, text), code, err, caught)
        if must_fail:
            assert code == 2, (text, err)
