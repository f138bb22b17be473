"""Golden commands: small runs of every CSV-writing command whose output
is pinned byte for byte.

Each CSV below is literal text from an earlier build.  A change that moves
any of them changes a stream layout or a result; such a change says so and
updates the text here together with the layout version.  The ``.meta`` of
the Monte Carlo goldens is pinned too, less its wall time, so a change of
its schema shows here, and its config lines must rerun the CSV.
"""

import pytest

from secmac import __version__
from secmac.cli import CONFIG_KEYS, main

FILES = {
    "sweep3.cfg": (
        "k = 3\n"
        "epsilon = 0.3\n"
        "p_grid = 1e3,1e5\n"
        "trials = 3000\n"
        "h = 1.4142135623730951,1.7320508075688772,1\n"
        "h_e = 1,1,1\n"
        "variance = 1\n"
        "master_seed = 5\n"
    ),
    "sweep_batches.cfg": (  # past one sweep batch of 65,536 trials; t = 0.44 and 0.64
        "k = 2\n"
        "epsilon = 0.3\n"
        "p_grid = 1e4,3e4\n"
        "trials = 65836\n"
        "h = 1.4142135623730951,1\n"
        "h_e = 1,1\n"
        "variance = 4\n"
        "master_seed = 19\n"
    ),
    "block.cfg": (
        "k = 2\n"
        "epsilon = 0.3\n"
        "p_grid = 1e4\n"
        "trials = 400\n"
        "n = 5\n"
        "h = 1.4142135623730951,1\n"
        "h_e = 1,1\n"
        "master_seed = 11\n"
    ),
    "block_batches.cfg": (  # past one block batch of 65,536 // 5 = 13,107 trials
        "k = 2\n"
        "epsilon = 0.3\n"
        "p_grid = 1e4\n"
        "trials = 13407\n"
        "n = 5\n"
        "h = 1.4142135623730951,1\n"
        "h_e = 1,1\n"
        "master_seed = 17\n"
    ),
    "leak_noisy.cfg": (
        "k = 2\n"
        "epsilon = 0.5\n"
        "p_grid = 1e4\n"
        "h = 1.5,1\n"
        "h_e = 1,1\n"
        "variance = 1\n"
        "bin_width = 1\n"
        "leakage_samples = 5000\n"
        "master_seed = 3\n"
    ),
    "leak_exact.cfg": (
        "k = 2\n"
        "epsilon = 0.5\n"
        "p_grid = 1e2\n"
        "h = 1.5,1\n"
        "h_e = 1,1\n"
        "variance = 0\n"
        "leakage_samples = 1000\n"
    ),
    "sampled.cfg": (  # no h or h_e: the gains are drawn from the seed
        "k = 2\n"
        "epsilon = 0.3\n"
        "p_grid = 1e3,1e4\n"
        "trials = 300\n"
        "n = 4\n"
        "variance = 1\n"
        "master_seed = 9\n"
    ),
    "mac.spec": (
        "k = 2\n"
        "u_sizes = 2 2\n"
        "x_sizes = 2 2\n"
        "y_size = 3\n"
        "z_size = 2\n"
        "p_u_1 = 0.25 0.75\n"
        "p_u_2 = 0.5 0.5\n"
        "p_x_given_u_1 = 0.9 0.1 0.2 0.8\n"
        "p_x_given_u_2 = 1 0 0 1\n"
        "p_yz_given_x = 0.5 0 0 0.5 0 0  0 0.25 0.25 0 0.5 0  0 0.5 0 0 0.25 0.25  0 0 0.5 0 0 0.5\n"
    ),
}

# name -> (argv without --out, CSV)
GOLDEN = {
    "sweep": (
        ["sweep", "--config", "sweep3.cfg"],
        (
            "P,P_tilde,Q,A,d_min,pe_tail_bound,pe_exp_bound,pe_mc,pe_mc_ci_low,pe_mc_ci_high,r_sum_bound_bits,eta_running\n"
            "1000,1000,2,15.19911082952934,0.70658028308038467,0.3619354677721372,0.93950046794051978,0.441,0.42331971491932191,0.45883118923026661,0,0\n"
            "100000,100000,3,93.260334688322033,0.31706539957750124,0.43701852787553708,0.98751231791058391,0.099000000000000005,0.088820063310378838,0.11020557336733258,2.3403528408781193,0.28180656221669054\n"
        ),
    ),
    "sweep_batches": (
        ["sweep", "--config", "sweep_batches.cfg"],
        (
            "P,P_tilde,Q,A,d_min,pe_tail_bound,pe_exp_bound,pe_mc,pe_mc_ci_low,pe_mc_ci_high,r_sum_bound_bits,eta_running\n"
            "10000,10000,4,24.620924014946269,1.7497551958483726,0.33089657569198389,0.90875808674388103,0.24184336836988882,0.238587624026708,0.2451292372713226,0,0\n"
            "30000,30000,4,36.079421619776305,2.5640855478894338,0.26075439388202493,0.81427738006263739,0.11991919314660672,0.11745979836605575,0.12242293994064107,0.49211746461784878,0.066177398293116571\n"
        ),
    ),
    "block": (
        ["block", "--config", "block.cfg"],
        (
            "P,P_tilde,Q,A,n,B,L,rate_bits_per_user,trials,block_errors,bler,bler_ci_low,bler_ci_high,decode_failures,cross_bin_duplicates\n"
            "10000,10000,4,24.620924014946269,5,16,14,0.80000000000000004,400,102,0.255,0.21475670087938903,0.2999043233444163,102,0\n"
        ),
    ),
    "block_batches": (
        ["block", "--config", "block_batches.cfg"],
        (
            "P,P_tilde,Q,A,n,B,L,rate_bits_per_user,trials,block_errors,bler,bler_ci_low,bler_ci_high,decode_failures,cross_bin_duplicates\n"
            "10000,10000,4,24.620924014946269,5,16,14,0.80000000000000004,13407,3353,0.25009323487730289,0.2428349640198422,0.2574946744613763,3353,0\n"
        ),
    ),
    "leakage_noisy": (
        ["leakage", "--config", "leak_noisy.cfg"],
        (
            "P,P_tilde,Q,A,variance,bin_width,samples,exhaustive,mi_bits,sum_entropy_bits,input_entropy_bits,residual_bits,bias_bound_bits\n"
            "10000,10000,2,39.810717055349734,1,1,5000,0,3.0129556953113923,2.9990795706241746,4.6438561897747244,1.6447766191505497,0.023660198670579002\n"
        ),
    ),
    "leakage_exhaustive": (
        ["leakage", "--config", "leak_exact.cfg"],
        (
            "P,P_tilde,Q,A,variance,bin_width,samples,exhaustive,mi_bits,sum_entropy_bits,input_entropy_bits,residual_bits,bias_bound_bits\n"
            "100,100,1,6.3095734448019334,0,0.63095734448019336,1008,1,2.1971597234241491,2.1971597234241491,3.1699250014423122,0.97276527801816304,0.0057249803209879508\n"
        ),
    ),
    "dmin_exact": (
        ["dmin", "--gains", "3/7,5/11,1", "--q", "3", "--a", "2"],
        (
            "q,a,points,gamma,d_min\n"
            "3,2,343,holds,0.025974025974024872\n"
        ),
    ),
    "dmin_float": (
        ["dmin", "--gains", "1.4142135623730951,1.7320508075688772,1", "--q", "4", "--a", "0.5"],
        (
            "q,a,points,gamma,d_min\n"
            "4,0.5,729,holds,0.0016998941760024699\n"
        ),
    ),
    "kg": (
        ["kg", "--gains", "1.4142135623730951,1.7320508075688772", "--eps", "0.5", "--n-list", "2,4,8"],
        (
            "N,m,m_scaled\n"
            "2,0.049888052764659463,0.282209443280664\n"
            "4,0.02457954745282187,0.78654551849029986\n"
            "8,0.00072895785901572197,0.13195546759916654\n"
        ),
    ),
    "entropy": (
        ["entropy", "--k", "3", "--q", "2"],
        (
            "k,q,bits\n"
            "3,2,3.3257640639714077\n"
        ),
    ),
    "region": (
        ["region", "--spec", "mac.spec"],
        (
            "subset_bitmask,bound_bits\n"
            "1,0.098002746199589374\n"
            "2,0.23580906550157232\n"
            "3,0.19001769956496606\n"
        ),
    ),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    for name, text in FILES.items():
        (path / name).write_text(text)
    return path


@pytest.mark.parametrize("name", GOLDEN)
def test_csv_is_byte_identical(workdir, monkeypatch, capsys, name):
    argv, want = GOLDEN[name]
    monkeypatch.chdir(workdir)
    assert main(argv + ["--out", f"{name}.csv"]) == 0
    capsys.readouterr()
    assert (workdir / f"{name}.csv").read_text() == want


# name -> its .meta less the wall_time_s line: the run keys, the config with
# its gains resolved, a sweep's fit keys and the stream layout
GOLDEN_META = {
    "sweep": (
        "# secmac metadata v1\n"
        "command = sweep\n"
        f"version = {__version__}\n"
        "k = 3\n"
        "epsilon = 0.29999999999999999\n"
        "p_grid = 1000,100000\n"
        "trials = 3000\n"
        "n = 4\n"
        "master_seed = 5\n"
        "variance = 1\n"
        "h = 1.4142135623730951,1.7320508075688772,1\n"
        "h_e = 1,1,1\n"
        "leakage_samples = 100000\n"
        "slope = 0.70451640554172634\n"
        "intercept = -3.5105292613171772\n"
        "fit_residual = 2.0106994154417229e-15\n"
        "stream_layout = 4\n"
    ),
    "sweep_batches": (
        "# secmac metadata v1\n"
        "command = sweep\n"
        f"version = {__version__}\n"
        "k = 2\n"
        "epsilon = 0.29999999999999999\n"
        "p_grid = 10000,30000\n"
        "trials = 65836\n"
        "n = 4\n"
        "master_seed = 19\n"
        "variance = 4\n"
        "h = 1.4142135623730951,1\n"
        "h_e = 1,1\n"
        "leakage_samples = 100000\n"
        "slope = 0.62098310135909784\n"
        "intercept = -4.1257224217101447\n"
        "fit_residual = 2.1812421540521875e-15\n"
        "stream_layout = 4\n"
    ),
    "block": (
        "# secmac metadata v1\n"
        "command = block\n"
        f"version = {__version__}\n"
        "k = 2\n"
        "epsilon = 0.29999999999999999\n"
        "p_grid = 10000\n"
        "trials = 400\n"
        "n = 5\n"
        "master_seed = 11\n"
        "variance = 1\n"
        "h = 1.4142135623730951,1\n"
        "h_e = 1,1\n"
        "leakage_samples = 100000\n"
        "stream_layout = 5\n"
    ),
    "block_batches": (
        "# secmac metadata v1\n"
        "command = block\n"
        f"version = {__version__}\n"
        "k = 2\n"
        "epsilon = 0.29999999999999999\n"
        "p_grid = 10000\n"
        "trials = 13407\n"
        "n = 5\n"
        "master_seed = 17\n"
        "variance = 1\n"
        "h = 1.4142135623730951,1\n"
        "h_e = 1,1\n"
        "leakage_samples = 100000\n"
        "stream_layout = 5\n"
    ),
    "leakage_noisy": (
        "# secmac metadata v1\n"
        "command = leakage\n"
        f"version = {__version__}\n"
        "k = 2\n"
        "epsilon = 0.5\n"
        "p_grid = 10000\n"
        "trials = 10000\n"
        "n = 4\n"
        "master_seed = 3\n"
        "variance = 1\n"
        "h = 1.5,1\n"
        "h_e = 1,1\n"
        "bin_width = 1\n"
        "leakage_samples = 5000\n"
        "stream_layout = 3\n"
    ),
    "leakage_exhaustive": (
        "# secmac metadata v1\n"
        "command = leakage\n"
        f"version = {__version__}\n"
        "k = 2\n"
        "epsilon = 0.5\n"
        "p_grid = 100\n"
        "trials = 10000\n"
        "n = 4\n"
        "master_seed = 0\n"
        "variance = 0\n"
        "h = 1.5,1\n"
        "h_e = 1,1\n"
        "leakage_samples = 1000\n"
        "stream_layout = 3\n"
    ),
}

# the Monte Carlo goldens and two runs whose gains are drawn
RERUN = {name: GOLDEN[name][0] for name in GOLDEN_META} | {
    "sweep_sampled": ["sweep", "--config", "sampled.cfg"],
    "block_sampled": ["block", "--config", "sampled.cfg"],
}


@pytest.mark.parametrize("name", GOLDEN_META)
def test_meta_is_pinned(workdir, monkeypatch, capsys, name):
    monkeypatch.chdir(workdir)
    assert main(GOLDEN[name][0] + ["--out", f"{name}.meta.csv"]) == 0
    capsys.readouterr()
    lines = (workdir / f"{name}.meta.csv.meta").read_text().splitlines(keepends=True)
    assert lines[3].startswith("wall_time_s = ")
    assert "".join(lines[:3] + lines[4:]) == GOLDEN_META[name]


@pytest.mark.parametrize("name", RERUN)
def test_sidecar_config_lines_rerun_the_csv(workdir, monkeypatch, capsys, name):
    # the sidecar's config-key lines, as a config file, give the same CSV
    argv = RERUN[name]
    monkeypatch.chdir(workdir)
    assert main(argv + ["--out", f"{name}.first.csv"]) == 0
    meta = (workdir / f"{name}.first.csv.meta").read_text().splitlines(keepends=True)
    config = "".join(line for line in meta if line.split(" = ")[0] in CONFIG_KEYS)
    assert "h = " in config and "h_e = " in config  # sampled gains are read back, not redrawn
    (workdir / f"{name}.rerun.cfg").write_text(config)
    assert main([argv[0], "--config", f"{name}.rerun.cfg", "--out", f"{name}.rerun.csv"]) == 0
    capsys.readouterr()
    first = (workdir / f"{name}.first.csv").read_text()
    assert (workdir / f"{name}.rerun.csv").read_text() == first
