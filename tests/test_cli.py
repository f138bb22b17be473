import math

import pytest

from secmac.cli import main

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
        code, _, err = run(
            capsys,
            "dmin",
            "--gains", "1.41421356237,1.7320508,1",
            "--q", "2",
            "--a", "1",
            "--cap", "10",
        )
        assert code == 3

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

    def test_block_negative_seed(self, tmp_path, capsys):
        cfg = tmp_path / "block.cfg"
        cfg.write_text(SWEEP_CONFIG + "n = 4\n")
        self.check_exit_2(capsys, "block", "--config", str(cfg), "--seed", "-1")

    @pytest.mark.parametrize("gains", [f"{10**400}/1,1", f"{10**400}/1,1/1"])
    def test_dmin_exact_gain_past_float_range(self, capsys, gains):
        self.check_exit_2(capsys, "dmin", "--gains", gains, "--q", "1", "--a", "1")
