import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from secmac import (
    ParameterError,
    SimConfig,
    SizeCapError,
    run_block_trials,
    run_leakage,
    run_symbol_sweep,
    sdof_limit,
    select_params,
    sum_entropy,
    sum_rate_lower_bound,
    wilson_interval,
)
from secmac import simulate
from secmac.channel import ChannelGains, normalize_gains, sample_gains, transmit
from secmac.codec import encode, hard_decode, nearer
from secmac.constellation import (
    ENUMERATION_CAP,
    mixed_radix_digits,
    pe_upper_bound,
    received_constellation,
)
from secmac.secrecy import JOINT_TABLE_CAP, composition_counts, entropy_bits
from secmac.simulate import (
    BATCH_USES,
    TABLE_CAP,
    WILSON_Z,
    _batches,
    _block_batch,
    _block_setup,
    _constellation,
    _far_tail,
    _grid_point,
    derive_code_sizes,
)

S2 = math.sqrt(2)
S3 = math.sqrt(3)

SWEEP_CFG = dict(
    K=2, epsilon=0.5, P_grid=(1e2, 1e4, 1e6), h=(S2, 1.0), h_e=(1.0, 1.0), master_seed=7
)


# Block-vs-sweep oracle configs: K=2, K=3 and a variance other than 1, each
# with symbol errors frequent enough to bound the BLER from both sides and
# with no cross-bin duplicates in its codebooks.
ORACLE_CFGS = (
    dict(K=2, epsilon=0.3, P_grid=(1e4,), h=(S2, 1.0), h_e=(1.0, 1.0), n=5, master_seed=11),
    dict(K=3, epsilon=0.3, P_grid=(1e6,), h=(S2, S3, 1.0), h_e=(1.0,) * 3, n=5, master_seed=11),
    dict(
        K=3, epsilon=0.3, P_grid=(1e5,), h=(S2, S3, 1.0), h_e=(1.0,) * 3, n=4, master_seed=3,
        variance=4.0,
    ),
)
ORACLE_Z = 4.0

# Exact sweep P_e configs, one grid point each: K=2 at variance 4, K=3 at
# variance 2, a negative normalisation scale at variance 300, and K=4; then
# three whose safe radius t lies just past the sampler's switch to Robert's
# proposal: K=2 at variance 2 (t = 0.62) and 1 (t = 0.88), K=3 at variance
# 0.05 (t = 0.71).  Of the first four only K=3 (t = 0.11) rejects normals.
EXACT_PE_CFGS = (
    dict(K=2, epsilon=0.5, P_grid=(1e4,), h=(S2, 1.0), h_e=(1.0, 1.0), variance=4.0),
    dict(K=3, epsilon=0.3, P_grid=(1e5,), h=(S2, S3, 1.0), h_e=(1.0,) * 3, variance=2.0),
    dict(K=2, epsilon=0.5, P_grid=(1e6,), h=(1.3, -0.9), h_e=(1.0, 1.1), variance=300.0),
    dict(K=4, epsilon=0.3, P_grid=(1e8,), h=(S2, S3, 1.0, math.sqrt(5)), h_e=(1.0,) * 4),
    dict(K=2, epsilon=0.3, P_grid=(1e4,), h=(S2, 1.0), h_e=(1.0, 1.0), variance=2.0),
    dict(K=2, epsilon=0.3, P_grid=(1e4,), h=(S2, 1.0), h_e=(1.0, 1.0), variance=1.0),
    dict(K=3, epsilon=0.3, P_grid=(1e5,), h=(S2, S3, 1.0), h_e=(1.0,) * 3, variance=0.05),
)
EXACT_PE_IDS = ["k2-var4", "k3-var2", "negative-scale", "k4", "k2-var2", "k2-var1", "k3-var0.05"]

# Block configs against the codebook-conditional exact error probability,
# as (K, epsilon, P, n, variance, master_seed) with sampled gains: K=2 and
# K=3, variances 0.25 to 4, code errors (first matches in another bin) in
# some, and a 65,536-row table (K=2, P=1e6, n=5).  Two more give explicit
# gains: a 65,536-row table at variance 8 and a negative normalisation scale.
EXACT_BLOCK_CFGS = tuple(
    dict(K=K, epsilon=eps, P_grid=(P,), n=n, variance=var, master_seed=seed)
    for K, eps, P, n, var, seed in (
        (2, 0.1, 1e3, 2, 0.25, 85), (2, 0.1, 1e4, 2, 1.0, 60), (2, 0.1, 1e4, 4, 0.25, 55),
        (2, 0.1, 1e5, 3, 0.25, 3), (2, 0.1, 1e5, 4, 1.0, 17), (2, 0.1, 1e6, 2, 0.25, 8),
        (2, 0.1, 1e6, 5, 0.25, 67), (2, 0.3, 1e3, 2, 0.25, 25), (2, 0.3, 1e3, 4, 0.25, 80),
        (2, 0.3, 1e4, 3, 4.0, 13), (2, 0.3, 1e4, 4, 0.25, 57), (2, 0.5, 1e4, 5, 4.0, 5),
        (2, 0.5, 1e5, 3, 4.0, 9), (3, 0.1, 1e5, 3, 0.25, 73), (3, 0.1, 1e6, 5, 0.25, 98),
        (3, 0.3, 1e3, 3, 0.25, 97), (3, 0.3, 1e4, 4, 0.25, 42), (3, 0.3, 1e5, 2, 1.0, 4),
        (3, 0.3, 1e6, 5, 1.0, 62), (3, 0.5, 1e3, 5, 1.0, 27), (3, 0.5, 1e5, 3, 0.25, 56),
        (3, 0.5, 1e6, 4, 4.0, 2),
    )
) + (
    dict(K=2, epsilon=0.3, P_grid=(1e6,), h=(S2, 1.0), h_e=(1.0, 1.0), n=6, variance=8.0,
         master_seed=3),
    dict(K=2, epsilon=0.5, P_grid=(1e5,), h=(1.3, -0.9), h_e=(1.0, 1.1), n=4, variance=16.0,
         master_seed=1),
)

# Noiseless block configs whose small tables hold cross-bin duplicates: K=2
# with L > 1 (the slot draws take part), K=2 with one-row bins, and K=3.
NOISELESS_DUPLICATE_CFGS = (
    dict(K=2, epsilon=0.3, P_grid=(1e4,), h=(S2, 1.0), h_e=(1.0, 1.0), n=4, master_seed=5),
    dict(K=2, epsilon=0.3, P_grid=(1e6,), h=(S2, 1.0), h_e=(1.0, 1.0), n=1, master_seed=5),
    dict(K=3, epsilon=0.1, P_grid=(1e6,), h=(S2, S3, 1.0), h_e=(1.0,) * 3, n=2, master_seed=5),
)


def uniform_batches(seed, command, K, low, high, total, *grid, uses=1):
    """(draws, noise seed) of each batch of trials of ``uses`` channel uses:
    the (bs, K) integers on [low, high] that block (uses = n) and leakage
    (uses = 1) draw from the batch's input stream."""
    for bs, draw, noise in _batches(seed, command, total, *grid, uses=uses):
        yield draw.integers(low, high + 1, size=(bs, K)), noise


def sweep_far_draws(cfg, rc, pi):
    """(sorted positions, received samples) of each batch's far trials at grid
    index pi, drawn as the sweep draws them (stream layout 4): a Binomial(bs,
    p_far) count, that many uniform positions, their points sent through
    transmit with noise beyond the safe radius."""
    t, p_far = _far_tail(rc, cfg.variance)
    for bs, draw, noise in _batches(cfg.master_seed, "sweep", cfg.trials, pi) if p_far else ():
        pos = draw.integers(0, rc.points.size, size=draw.binomial(bs, p_far))
        yield pos, transmit(rc.points[pos], cfg.variance, noise, t)


class TestWilson:
    def test_single_trial_spans_nearly_everything(self):
        low, high = wilson_interval(0, 1)
        assert low == 0.0 and high > 0.75
        low, high = wilson_interval(1, 1)
        assert low < 0.25 and high == 1.0

    def test_zero_errors(self):
        low, high = wilson_interval(0, 100_000)
        assert low == 0.0
        assert 0 < high < 1e-4

    def test_contains_point_estimate(self):
        for errors, trials in [(3, 10), (50, 1000), (999, 1000)]:
            low, high = wilson_interval(errors, trials)
            assert low <= errors / trials <= high

    def test_bad_counts(self):
        with pytest.raises(ParameterError):
            wilson_interval(2, 1)
        with pytest.raises(ParameterError, match="trials must be >= 1, got 0"):
            wilson_interval(0, 0)

    @pytest.mark.parametrize("z", [-2.0, 0.0, math.nan, math.inf, -math.inf])
    def test_z_must_be_positive_and_finite(self, z):
        # z = -2 gave the inverted (0.609, 0.106) and z = nan gave (0, 1)
        with pytest.raises(ParameterError, match="z must be positive and finite"):
            wilson_interval(3, 10, z)

    @pytest.mark.parametrize("z", [WILSON_Z, ORACLE_Z])
    def test_ends_are_exact(self, z):
        # rounding left a positive lower bound at 0 errors (n = 100: 3.5e-18)
        # and an upper bound below 1 at n errors for thousands of n
        for trials in range(1, 5001):
            assert wilson_interval(0, trials, z)[0] == 0.0
            assert wilson_interval(trials, trials, z)[1] == 1.0


class TestSimConfig:
    def test_grid_must_increase(self):
        with pytest.raises(ParameterError):
            SimConfig(K=2, epsilon=0.5, P_grid=(1e4, 1e2))

    def test_grid_must_not_be_empty(self):
        with pytest.raises(ParameterError, match="P grid is empty"):
            SimConfig(K=2, epsilon=0.5, P_grid=())

    def test_gains_come_in_pairs(self):
        with pytest.raises(ParameterError):
            SimConfig(K=2, epsilon=0.5, P_grid=(1e2,), h=(1.0, 2.0))

    @pytest.mark.parametrize(
        "change",
        [
            dict(P_grid=(1e2, math.nan)),
            dict(P_grid=(1e2, math.inf)),
            dict(variance=math.nan),
            dict(variance=math.inf),
            dict(master_seed=-1),
            dict(epsilon=math.nan),
        ],
    )
    def test_non_finite_or_negative(self, change):
        with pytest.raises(ParameterError):
            SimConfig(**{**dict(K=2, epsilon=0.5, P_grid=(1e2,)), **change})

    def test_sampled_gains_deterministic(self):
        a = SimConfig(K=2, epsilon=0.5, P_grid=(1e2,), master_seed=3).resolve_gains()
        b = SimConfig(K=2, epsilon=0.5, P_grid=(1e2,), master_seed=3).resolve_gains()
        assert a == b

    def test_explicit_gains_used(self):
        cfg = SimConfig(K=2, epsilon=0.5, P_grid=(1e2,), h=(S2, 1.0), h_e=(1.0, 1.0))
        assert cfg.resolve_gains().h == (S2, 1.0)


class TestSymbolSweep:
    def test_noiseless_grid_has_zero_errors(self):
        cfg = SimConfig(**SWEEP_CFG, trials=2000, variance=0.0)
        rep = run_symbol_sweep(cfg)
        assert all(r.pe_mc == 0.0 for r in rep.rows)
        # eta then matches the P_e = 0 analytic chain exactly
        for r in rep.rows:
            want = sum_rate_lower_bound(2, r.Q, 0.0)
            assert r.r_sum_bound_bits == pytest.approx(want, rel=1e-14)
        # error-free rows climb toward the DoF limit from below
        etas = [r.eta_running for r in rep.rows]
        assert etas == sorted(etas)
        assert all(e < sdof_limit(2, 0.5) for e in etas)

    def test_rate_columns_read_the_row_error_rate(self):
        # K=3 at variance 4: every row has symbol errors and a positive bound
        cfg = SimConfig(
            K=3, epsilon=0.3, P_grid=(1e6, 1e8), h=(S2, S3, 1.0), h_e=(1.0,) * 3,
            master_seed=7, trials=4000, variance=4.0,
        )
        for r in run_symbol_sweep(cfg).rows:
            # K log2(2Q+1) - log2(2KQ+1) - 1, less the Fano penalty P_e K log2(2Q+1)
            per_user = math.log2(2 * r.Q + 1)
            want = 3 * per_user - math.log2(6 * r.Q + 1) - 1 - r.pe_mc * 3 * per_user
            assert r.pe_mc > 0 and want > 0
            assert r.r_sum_bound_bits == pytest.approx(want, rel=1e-12)
            assert r.eta_running == pytest.approx(want / (0.5 * math.log2(r.P)), rel=1e-12)

    def test_rows_echo_select_params(self):
        cfg = SimConfig(**SWEEP_CFG, trials=100, variance=0.0)
        rep = run_symbol_sweep(cfg)
        for r in rep.rows:
            Q, A = select_params(r.P_tilde, 2, 0.5)
            assert (r.Q, r.A) == (Q, A)
        assert [r.P for r in rep.rows] == [1e2, 1e4, 1e6]

    def test_monotone_error_trend(self):
        cfg = SimConfig(**SWEEP_CFG, trials=20_000)
        rep = run_symbol_sweep(cfg)
        pes = [r.pe_mc for r in rep.rows]
        assert pes[0] > pes[1] >= pes[2]

    def test_deterministic_report(self):
        cfg = SimConfig(**SWEEP_CFG, trials=5000)
        a = run_symbol_sweep(cfg)
        b = run_symbol_sweep(cfg)
        assert a == b
        assert a.to_csv() == b.to_csv()

    def test_ci_brackets_estimate(self):
        cfg = SimConfig(**SWEEP_CFG, trials=5000)
        rep = run_symbol_sweep(cfg)
        for r in rep.rows:
            assert r.pe_mc_ci_low <= r.pe_mc <= r.pe_mc_ci_high
            assert 0.0 <= r.pe_mc <= 1.0

    def test_csv_roundtrip_lossless(self):
        cfg = SimConfig(**SWEEP_CFG, trials=1000)
        rep = run_symbol_sweep(cfg)
        lines = rep.to_csv().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            cells = line.split(",")
            parsed = dict(zip(header, cells))
            assert float(parsed["pe_mc"]) == rep.rows[lines[1:].index(line)].pe_mc
            assert float(parsed["A"]) == rep.rows[lines[1:].index(line)].A

    def test_sampled_gains_decode_cleanly(self):
        # normalization scale != 1 must not break the decode geometry
        for seed in range(4):
            cfg = SimConfig(
                K=3, epsilon=0.3, P_grid=(1e3, 1e5), trials=1000, master_seed=seed, variance=0.0
            )
            rep = run_symbol_sweep(cfg)
            assert all(r.pe_mc == 0.0 for r in rep.rows)

    def test_negative_scale_decodes_cleanly(self):
        cfg = SimConfig(
            K=2,
            epsilon=0.5,
            P_grid=(1e4,),
            trials=1000,
            h=(1.3, -0.9),
            h_e=(1.0, 1.1),
            variance=0.0,
        )
        rep = run_symbol_sweep(cfg)
        assert rep.rows[0].pe_mc == 0.0

    @pytest.mark.parametrize(
        "cfg",
        [
            dict(SWEEP_CFG, variance=4.0),
            dict(SWEEP_CFG, variance=0.0),
            # negative normalisation scale: the samples are sign-flipped
            dict(K=2, epsilon=0.5, P_grid=(1e2, 1e4), h=(1.3, -0.9), h_e=(1.0, 1.1)),
            dict(K=3, epsilon=0.3, P_grid=(1e3, 1e5), master_seed=4, variance=2.0),
        ],
    )
    def test_error_counts_match_hard_decoding(self, cfg):
        # the decision-cell count against a full hard decode of the same
        # draws: each batch's far trials (stream layout 4), their uniform
        # sorted positions' points sent through transmit beyond the safe radius
        cfg = SimConfig(**cfg, trials=BATCH_USES + 500)
        gains = cfg.resolve_gains()
        g = normalize_gains(gains)
        want = []
        for pi, P in enumerate(cfg.P_grid):
            rc = _constellation(g, _grid_point(cfg, gains, P))
            errors = 0
            for pos, y in sweep_far_draws(cfg, rc, pi):
                sent = mixed_radix_digits(rc.index[pos], rc.K, rc.Q)
                errors += int(np.count_nonzero(np.any(hard_decode(y, rc) != sent, axis=1)))
            want.append(errors)
        got = [round(r.pe_mc * cfg.trials) for r in run_symbol_sweep(cfg).rows]
        assert got == want
        assert cfg.variance == 0 or sum(want) > 0

    @pytest.mark.parametrize("variance", [0.0, 1.0, 4.0])
    def test_bound_columns_read_the_noise_variance(self, variance):
        # the unit-variance bounds at d_min / sigma: Phi_bar(d_min / 2 sigma)
        # and exp(-d_min^2 / 8 sigma^2), both 0 without noise
        cfg = SimConfig(**dict(EXACT_PE_CFGS[0], variance=variance), trials=10)
        row = run_symbol_sweep(cfg).rows[0]
        sigma = math.sqrt(variance)
        want = (0.0, 0.0)
        if sigma:
            want = (
                0.5 * math.erfc(row.d_min / (2 * sigma * math.sqrt(2))),
                math.exp(-(row.d_min**2) / (8 * variance)),
            )
        assert (row.pe_tail_bound, row.pe_exp_bound) == pytest.approx(want, rel=1e-12, abs=0)
        if variance == 1:  # unit variance passes d_min itself
            assert (row.pe_tail_bound, row.pe_exp_bound) == pe_upper_bound(row.d_min)

    @pytest.mark.parametrize("h,status", [((1.0, 1.0), "violated"), ((0.5 + 1e-13, 1.0), "suspect")])
    def test_gamma_not_holding_is_refused(self, h, status):
        # a tuple has a point of its own only when gamma holds
        cfg = SimConfig(K=2, epsilon=0.5, P_grid=(1e4,), h=h, h_e=(1.0, 1.0), trials=10)
        want = rf"gamma status is {status} \[grid point P=10000\.0\]$"
        with pytest.raises(ParameterError, match=want):
            run_symbol_sweep(cfg)

    @pytest.mark.parametrize("cfg", EXACT_PE_CFGS, ids=EXACT_PE_IDS)
    def test_matches_exact_symbol_error(self, cfg):
        # a uniform point plus noise, seed-free: pe_mc within a z=4 Wilson
        # interval of the exact error probability of nearest-point decoding
        cfg = SimConfig(**cfg, trials=200_000)
        gains = cfg.resolve_gains()
        rc = _constellation(normalize_gains(gains), _grid_point(cfg, gains, cfg.P_grid[0]))
        exact = exact_symbol_error(rc.points, cfg.variance)
        errors = round(run_symbol_sweep(cfg).rows[0].pe_mc * cfg.trials)
        low, high = wilson_interval(errors, cfg.trials, ORACLE_Z)
        assert low <= exact <= high, (errors / cfg.trials, exact)
        assert 0.01 < exact < 0.9

    @pytest.mark.parametrize("variance", [0.0, 1e-6])
    def test_no_stream_without_a_far_trial(self, monkeypatch, variance):
        # no noise, or p_far = 2 Phi_bar(t) underflowing (t = d_min/2sigma ~ 3400
        # here): no trial can err, so nothing is drawn
        def no_stream(*args, **kwargs):
            raise AssertionError("stream derived")

        for name in ("stream", "substream", "transmit"):
            monkeypatch.setattr(simulate, name, no_stream)
        cfg = SimConfig(**dict(EXACT_PE_CFGS[0], variance=variance), trials=100_000)
        row = run_symbol_sweep(cfg).rows[0]
        rc = _constellation(normalize_gains(cfg.resolve_gains()), row)
        assert _far_tail(rc, variance)[1] == 0.0
        assert (row.pe_mc, row.pe_mc_ci_low, row.pe_tail_bound) == (0.0, 0.0, 0.0)

    def test_failing_grid_point_names_p(self):
        cfg = SimConfig(
            K=2,
            epsilon=0.5,
            P_grid=(0.1, 1e4),
            h=(S2, 1.0),
            h_e=(1.0, 1.0),
            trials=10,
        )
        with pytest.raises(ParameterError, match=r"P=0\.1"):
            run_symbol_sweep(cfg)

    @pytest.mark.parametrize("P_grid", [(0.5,), (1.0, 1e4)])
    def test_power_at_most_one_is_refused_before_gains_are_drawn(self, monkeypatch, P_grid):
        # eta_running divides by log2 P; h_e = 4 keeps P_tilde >= 1 at P = 0.5
        def drawn(cfg):
            raise AssertionError("gains drawn")

        monkeypatch.setattr(SimConfig, "resolve_gains", drawn)
        cfg = SimConfig(K=2, epsilon=0.5, P_grid=P_grid, h=(S2, 1.0), h_e=(4.0, 4.0), trials=1)
        with pytest.raises(ParameterError, match=rf"\[grid point P={P_grid[0]}\]"):
            run_symbol_sweep(cfg)


# Constellations whose largest |point| is 10^4 to 10^7 times d_min: K=2 at
# Q=300, K=3 at Q=40, sampled K=4 gains and a negative normalisation scale.
SAFE_RADIUS_CASES = {
    "k2-q300": (ChannelGains(h=(S2, 1.0), h_e=(1.0, 1.0)), 300, 1e6),
    "k3-q40": (ChannelGains(h=(S2, S3, 1.0), h_e=(1.0,) * 3), 40, 3.7),
    "k4-sampled": (sample_gains(5, 4), 8, 1e-3),
    "negative-scale": (ChannelGains(h=(1.3, -0.9), h_e=(1.0, 1.1)), 40, 123.0),
}


@pytest.mark.parametrize("case", SAFE_RADIUS_CASES)
def test_safe_radius_decodes_to_the_sent_point(case):
    # every point x sent with noise sigma*z, z = +-t or one ulp inside, is
    # decoded to x by the sweep's test and by hard_decode: a trial within the
    # safe radius t cannot err, so the sweep draws no noise for it
    gains, Q, A = SAFE_RADIUS_CASES[case]
    g = normalize_gains(gains)
    rc = received_constellation(g, Q, A * abs(g.scale))
    pts, pos = rc.points, np.arange(rc.points.size)
    assert rc.gamma_holds and rc.d_min < 1e-3 * max(-pts[0], pts[-1])
    sent = mixed_radix_digits(rc.index, rc.K, rc.Q)
    for variance in (1.0, 0.37, (0.1 * rc.d_min) ** 2, (3.0 * rc.d_min) ** 2):
        t = _far_tail(rc, variance)[0]
        assert 0 < t < math.inf
        for z in (t, -t, np.nextafter(t, 0), -np.nextafter(t, 0)):
            y = pts + np.sqrt(variance) * np.full(pts.size, z)  # as transmit adds it
            assert np.array_equal(nearer(y, pts, pos + (y >= pts)), pos)
            assert np.array_equal(hard_decode(y, rc), sent)


@pytest.mark.parametrize("command,grid", [("sweep", (1,)), ("leakage", ()), ("block", ())])
def test_uniform_batches_do_not_depend_on_the_total(command, grid):
    # runs of T and T + batch draws, across one of the command's batch
    # boundaries, share their full first batch of draws and received samples:
    # the sweep's far trials (sorted positions on [0, M-1], their points
    # sent), leakage's tuples on [-Q, Q], whose aligned sums A*sum(v) are
    # sent, and block's messages on [0, B-1] for n = 5 channel uses a trial,
    # sent here as tuples through the received point's coefficients A*|s|*g,
    # in batches of BATCH_USES // 5 trials.  Leakage and block trials
    # match one for one in the short last batch too; the sweep draws its
    # far-trial count there on the batch size, so its last batches differ
    g = normalize_gains(ChannelGains(h=(S2, S3, 1.0), h_e=(1.3, 0.7, 1.1)))
    rc = received_constellation(g, 4, 3.5 * abs(g.scale))
    coefs = g.as_floats() * (3.5 * abs(g.scale))
    K, low, high, received = {
        "sweep": (1, 0, rc.points.size - 1, None),
        "leakage": (3, -4, 4, lambda v: 3.5 * v.sum(axis=1)),
        "block": (3, 0, 9, lambda v: v @ coefs),
    }[command]

    def draw(total):
        if command == "sweep":
            cfg = SimConfig(K=3, epsilon=0.5, P_grid=(1e4,), trials=total, variance=2.0,
                            master_seed=7)
            return list(sweep_far_draws(cfg, rc, *grid))
        batches = uniform_batches(7, command, K, low, high, total, uses=uses)
        return [(v, transmit(received(v), 2.0, s)) for v, s in batches]

    uses = 5 if command == "block" else 1
    batch = BATCH_USES // uses
    (v, y), (v_end, y_end) = draw(batch + 300)
    (v_long, y_long), (v_long_end, y_long_end) = draw(2 * batch + 300)[:2]
    assert np.array_equal(v, v_long) and np.array_equal(y, y_long)
    assert (v.min(), v.max()) == (low, high)
    if command == "sweep":
        assert v.size < batch and len(v_end) < 300
    else:
        assert v.shape == (batch, K) and v_end.shape == (300, K)
        assert np.array_equal(v_end, v_long_end[:300])
        assert np.array_equal(y_end, y_long_end[:300])


@pytest.mark.parametrize("command", ["sweep", "block"])
def test_negating_every_gain_leaves_the_csv(command):
    # -h has the same ratios up to the sign of the last, s, which the
    # intended receiver divides out: same constellation, same samples
    run = {"sweep": run_symbol_sweep, "block": run_block_trials}[command]
    cfg = dict(K=2, epsilon=0.3, P_grid=(1e4,), n=3, variance=4.0, trials=4000, master_seed=11)
    csvs = [run(SimConfig(**cfg, h=h, h_e=(1.0, 1.0))).to_csv() for h in ((S2, 1.0), (-S2, -1.0))]
    assert csvs[0] == csvs[1]


@pytest.mark.parametrize("K,seed,negate", [(2, 1, False), (3, 2, False), (2, 3, True), (3, 4, True)])
def test_samples_are_the_physical_channel_outputs(monkeypatch, K, seed, negate):
    # the physical channel, inputs x_k = A*v_k/h_{k,e} and a receiver's output
    # sum_k h_k x_k: the intended receiver's output times the sign of the last
    # ratio is what block sends, and the eavesdropper's (gains h_e) is what
    # leakage sends, each within a few ulps of the sum of its terms' magnitudes
    gains = sample_gains(seed, K)
    if negate:  # a negative last ratio
        gains = ChannelGains(h=gains.h[:-1] + (-gains.h[-1],), h_e=gains.h_e)
    sent = []

    def record(y, variance, seed):
        sent.append(y)
        return transmit(y, variance, seed)

    monkeypatch.setattr(simulate, "transmit", record)
    cfg = SimConfig(K=K, epsilon=0.3, P_grid=(1e6,), n=3, h=gains.h, h_e=gains.h_e,
                    leakage_samples=2000)
    ulps = 4 * np.finfo(float).eps

    run = _block_setup(cfg)
    B = run.codebooks[0].B
    msgs, batch_seed = next(uniform_batches(5, "block", K, 0, B - 1, 500, uses=cfg.n))
    _block_batch(run, msgs, batch_seed)
    v = np.stack([encode(cb, msgs[:, k], batch_seed) for k, cb in enumerate(run.codebooks)], -1)
    v = v.reshape(-1, K)
    sgn = math.copysign(1.0, gains.h[-1] / gains.h_e[-1])
    main = sgn * ((run.point.A * v / np.array(gains.h_e)) @ np.array(gains.h))
    assert np.all(np.abs(sent[-1] - main) <= ulps * (np.abs(v) @ np.abs(run.coefs)))

    sent.clear()
    rep = run_leakage(cfg)
    Q, A = rep.Q, rep.A
    batches = uniform_batches(cfg.master_seed, "leakage", K, -Q, Q, cfg.leakage_samples)
    v = np.concatenate([v for v, _ in batches])
    eve = (A * v / np.array(gains.h_e)) @ np.array(gains.h_e)
    assert np.all(np.abs(np.concatenate(sent) - eve) <= ulps * A * np.abs(v).sum(axis=1))


def code_sizes_oracle(cfg, Q):
    """derive_code_sizes' rule with every power formed in full."""
    r = sum_rate_lower_bound(cfg.K, Q, 0.0) / cfg.K
    B = 2 ** math.ceil(cfg.n * r)
    L = 2 ** max(0, math.ceil(cfg.n * (math.log2(2 * Q + 1) - r)))
    max_table = min(TABLE_CAP, (2 * Q + 1) ** cfg.n // 256)
    return B, max(1, min(L, max_table // B))


def code_sizes_literal_caps(cfg, Q):
    """derive_code_sizes' rule with its power caps written as the literals 17
    and 24, as they were before ``TABLE_CAP`` gave them."""
    r = sum_rate_lower_bound(cfg.K, Q, 0.0) / cfg.K
    B = 2 ** math.ceil(cfg.n * r)
    L = 2 ** min(max(0, math.ceil(cfg.n * (math.log2(2 * Q + 1) - r))), 17)
    max_table = min(TABLE_CAP, (2 * Q + 1) ** min(cfg.n, 24) // 256)
    return B, max(1, min(L, max_table // B))


class TestCodeSizes:
    @pytest.mark.parametrize("K", [2, 3, 4])
    @pytest.mark.parametrize("eps", [0.1, 0.3, 0.5])
    def test_matches_full_powers(self, K, eps):
        for n in (1, 2, 3, 5, 8, 13, 20, 24, 25, 30, 40, 64):
            cfg = SimConfig(K=K, epsilon=eps, P_grid=(1e4,), n=n)
            for Q in (1, 2, 3, 4, 7, 12, 30, 94, 1000):
                if n * sum_rate_lower_bound(K, Q, 0.0) / K <= 62:
                    assert derive_code_sizes(cfg, Q) == code_sizes_oracle(cfg, Q), (n, Q)

    @settings(max_examples=300, deadline=None)
    @given(
        K=st.integers(2, 6),
        eps=st.floats(0.01, 0.99),
        log_p=st.floats(0.0, 40.0),
        n=st.integers(1, 300),
    )
    def test_caps_from_table_cap_match_the_literals(self, K, eps, log_p, n):
        P = 10.0**log_p
        Q = select_params(P, K, eps).Q
        assume(n * sum_rate_lower_bound(K, Q, 0.0) / K <= 62)
        cfg = SimConfig(K=K, epsilon=eps, P_grid=(P,), n=n)
        assert derive_code_sizes(cfg, Q) == code_sizes_literal_caps(cfg, Q)

    @pytest.mark.parametrize("n", [JOINT_TABLE_CAP + 1, 10**30, 10**400], ids=["cap", "e30", "e400"])
    def test_huge_block_length_refused_at_once(self, n):
        cfg = SimConfig(K=2, epsilon=0.5, P_grid=(1e4,), n=n)
        with pytest.raises(SizeCapError, match="needs over 2\\^62 bins"):
            derive_code_sizes(cfg, 1)  # B = 1 here: the sum-rate bound is 0 at Q = 1

    def test_bins_past_int64_refused(self):
        cfg = SimConfig(K=2, epsilon=0.5, P_grid=(1e4,), n=100)
        assert 100 * sum_rate_lower_bound(2, 50, 0.0) / 2 > 62
        with pytest.raises(SizeCapError, match="n = 100 needs over"):
            derive_code_sizes(cfg, 50)


class TestBlockTrials:
    @pytest.mark.parametrize("cfg", NOISELESS_DUPLICATE_CFGS)
    def test_noiseless_bler_matches_cross_bin_share(self, cfg):
        # noiseless, every sent row comes back and is looked up to its first
        # table match; the sent row is uniform over the table, so user k errs
        # with the share s_k of rows whose first match is in another bin, and
        # BLER = 1 - prod_k (1 - s_k) whatever the stream layout
        cfg = SimConfig(**cfg, variance=0.0, trials=20_000)
        rep = run_block_trials(cfg)
        ok = 1.0
        for cb in _block_setup(cfg).codebooks:
            _, first, inv = np.unique(
                cb.table.reshape(-1, cb.n), axis=0, return_index=True, return_inverse=True
            )
            ok *= 1 - np.mean(first[inv] // cb.L != np.arange(cb.B * cb.L) // cb.L)
        lo, hi = wilson_interval(rep.block_errors, rep.trials, ORACLE_Z)
        assert rep.cross_bin_duplicates > 0 and rep.decode_failures == 0
        assert lo <= 1 - ok <= hi

    def test_noiseless_zero_bler(self):
        cfg = SimConfig(**SWEEP_CFG, trials=300, n=4, variance=0.0)
        rep = run_block_trials(cfg)
        assert rep.bler == 0.0
        assert rep.decode_failures == 0

    def test_deterministic(self):
        cfg = SimConfig(**SWEEP_CFG, trials=300, n=4)
        assert run_block_trials(cfg) == run_block_trials(cfg)

    def test_rate_matches_bin_count(self):
        cfg = SimConfig(**SWEEP_CFG, trials=50, n=4, variance=0.0)
        rep = run_block_trials(cfg)
        assert rep.B == 2 ** math.ceil(rep.n * rep.rate_bits_per_user)
        assert rep.rate_bits_per_user == math.log2(rep.B) / rep.n

    def test_consistency_with_symbol_sweep(self):
        # codebook symbols are i.i.d. uniform like the sweep's, so without
        # cross-bin duplicates a block errs when one of its n symbol tuples
        # does (a wrong sequence landing in the sent bin is rare in these
        # sparse tables): BLER = 1 - (1 - p_sym)^n from both sides, within
        # the Wilson margins of both runs
        for c in ORACLE_CFGS:
            sweep = run_symbol_sweep(SimConfig(**c, trials=100_000)).rows[-1]
            rep = run_block_trials(SimConfig(**c, trials=20_000))
            assert rep.cross_bin_duplicates == 0
            sym_lo, sym_hi = wilson_interval(round(sweep.pe_mc * 100_000), 100_000, ORACLE_Z)
            lo, hi = wilson_interval(rep.block_errors, rep.trials, ORACLE_Z)
            assert hi >= 1 - (1 - sym_lo) ** rep.n, c
            assert lo <= 1 - (1 - sym_hi) ** rep.n, c

    @pytest.mark.parametrize("cfg", EXACT_BLOCK_CFGS)
    def test_matches_codebook_conditional_exact_error(self, cfg):
        # given the run's own codebooks, messages and slots, only the noise is
        # random: trial t succeeds with probability p_t (block_success), short
        # only by a misdecoded sequence that lands in the sent bin, which can
        # only lower the error count; the errors lie within z = 4 of
        # sum(1 - p_t), so in particular at most sum(1 - p_t) + 4 sd
        cfg = SimConfig(**cfg, trials=4000)
        p = block_success(cfg)
        mean, sd = np.sum(1 - p), math.sqrt(np.sum(p * (1 - p)))
        assert sd > 0 and 0.02 * cfg.trials < mean < 0.9 * cfg.trials
        errors = run_block_trials(cfg).block_errors
        assert abs(errors - mean) <= ORACLE_Z * sd, (errors, mean, sd)

    @pytest.mark.parametrize("K,eps,P,n,B", [(3, 0.3, 1e6, 20, 2**26), (2, 0.5, 1e8, 40, 2**36)])
    def test_bin_count_past_table_cap_is_refused(self, K, eps, P, n, B, monkeypatch):
        # refused before any constellation is built or table drawn (the
        # first table would need 10.7 GB)
        cfg = SimConfig(K=K, epsilon=eps, P_grid=(P,), n=n, h=(1.0,) * K, h_e=(1.0,) * K)
        assert derive_code_sizes(cfg, select_params(P, K, eps).Q)[0] == B > TABLE_CAP

        def no_table(*args, **kwargs):
            raise AssertionError("a constellation was built or a codebook drawn")

        monkeypatch.setattr("secmac.simulate.received_constellation", no_table)
        monkeypatch.setattr("secmac.simulate.build_codebook", no_table)
        with pytest.raises(SizeCapError, match=f"B = {B} bins per user, cap is 65536"):
            run_block_trials(cfg)

    @pytest.mark.parametrize(
        "n,epsilon,variance", [(1, 0.3, 1.0), (5, 0.3, 1.0), (40, 0.5, 2.0)], ids=["1", "5", "40"]
    )
    def test_flags_do_not_depend_on_trial_count(self, n, epsilon, variance):
        # the first T trials of a run with T + b trials, b = BATCH_USES // n
        # the batch size, are the trials of a run with T, across a batch boundary
        c = ORACLE_CFGS[0] | dict(n=n, epsilon=epsilon, variance=variance)
        run = _block_setup(SimConfig(**c, trials=1))
        # the slot draws take part, but for n = 1, whose bins hold one row
        assert (run.codebooks[0].L > 1) == (n > 1)

        def flags(trials):
            B = run.codebooks[0].B
            batches = uniform_batches(
                run.cfg.master_seed, "block", run.cfg.K, 0, B - 1, trials, uses=n
            )
            parts = [_block_batch(run, msgs, seed) for msgs, seed in batches]
            return [np.concatenate([p[i] for p in parts]) for i in (0, 1)]

        batch = BATCH_USES // n
        T = batch + 300
        err, fail = flags(T)
        err_long, fail_long = flags(T + batch)
        assert np.array_equal(err, err_long[:T])
        assert np.array_equal(fail, fail_long[:T])
        assert 0 < fail.sum() <= err.sum() < T
        rep = run_block_trials(SimConfig(**c, trials=T))
        assert (rep.block_errors, rep.decode_failures) == (err.sum(), fail.sum())

    def test_block_length_past_int64_keys(self):
        # n = 40, Q = 2: 5^40 sequences, more than 2^63
        c = dict(K=2, epsilon=0.5, P_grid=(1e4,), h=(S2, 1.0), h_e=(1.0, 1.0), n=40)
        noiseless = run_block_trials(SimConfig(**c, trials=200, variance=0.0))
        assert noiseless.Q == 2 and 5**40 > 2**63
        assert (noiseless.block_errors, noiseless.decode_failures) == (0, 0)
        assert noiseless.cross_bin_duplicates == 0
        rep = run_block_trials(SimConfig(**c, trials=2000))
        assert 0 < rep.block_errors < rep.trials

        cb = _block_setup(SimConfig(**c)).codebooks[0]
        rng = np.random.default_rng(0)
        rows = cb.table.reshape(-1, cb.n)[rng.integers(0, cb.B * cb.L, 100)]
        near = rows.copy()
        near[:, -1] = np.where(near[:, -1] < cb.Q, near[:, -1] + 1, -cb.Q)
        batch = np.concatenate([rows, near, rng.integers(-cb.Q, cb.Q + 1, size=(100, cb.n))])
        got = cb.bin_of(batch)
        want = [cb.bin_of(r).item() for r in batch]
        assert got.tolist() == want
        assert all(w >= 0 for w in want[:100])


class TestUnfinishableK:
    """A K that no run can finish is refused before any gain is drawn."""

    @pytest.mark.parametrize("run", [run_symbol_sweep, run_block_trials])
    @pytest.mark.parametrize("K,cap", [(10**30, 10**7), (15, 10**7)])
    def test_constellation_runs(self, run, K, cap, monkeypatch):
        # Q >= 1, so a run needs at least 3^K points: 3^15 > 1e7 = ENUMERATION_CAP
        assert cap == ENUMERATION_CAP

        def no_gains(*args, **kwargs):
            raise AssertionError("gains were drawn")

        monkeypatch.setattr("secmac.simulate.SimConfig.resolve_gains", no_gains)
        cfg = SimConfig(K=K, epsilon=0.5, P_grid=(1e4,), trials=10)
        with pytest.raises(SizeCapError, match="3\\^K"):
            run(cfg)

    @pytest.mark.parametrize("K,samples", [(10**30, 1000), (2, 10**30), (10_001, 1000)])
    def test_leakage(self, K, samples, monkeypatch):
        def no_gains(*args, **kwargs):
            raise AssertionError("gains were drawn")

        monkeypatch.setattr("secmac.simulate.SimConfig.resolve_gains", no_gains)
        cfg = SimConfig(K=K, epsilon=0.5, P_grid=(1e4,), leakage_samples=samples)
        with pytest.raises(SizeCapError, match="samples of"):
            run_leakage(cfg)

    def test_leakage_at_k40_still_runs(self):
        rep = run_leakage(SimConfig(K=40, epsilon=0.5, P_grid=(1e4,), leakage_samples=1000))
        assert rep.samples == 1000


def exact_symbol_error(points, variance):
    """P_e of a uniform point of the sorted ``points`` plus noise of the given
    variance under nearest-point decoding: (1/M) sum_i [Qf(gap_{i-1}/2sd) +
    Qf(gap_i/2sd)] with Qf the Gaussian tail and no gap past either end,
    that is 2/M times the sum of Qf over the M-1 gaps."""
    tail = np.vectorize(lambda x: 0.5 * math.erfc(x / math.sqrt(2)))
    return float(2 * tail(np.diff(points) / (2 * math.sqrt(variance))).sum() / points.size)


def block_success(cfg):
    """Success probability p_t of each trial of a block run, given its draws:
    each channel use t decodes to its own point with probability
    c(x_t) = 1 - Qf(g_l/2sd) - Qf(g_r/2sd), with g_l and g_r the gaps to the
    point's neighbours (none past either end), and p_t is the product of
    c(x_t) over the block times 1 when every user's sent sequence has its
    first table match in the sent bin, else 0."""
    run = _block_setup(cfg)
    pts, cbs = run.rc.points, run.codebooks
    gaps, which = np.unique(np.diff(pts), return_inverse=True)
    tail = np.array([0.5 * math.erfc(g / (2 * math.sqrt(2 * cfg.variance))) for g in gaps])[which]
    stay = 1 - np.append(tail, 0.0) - np.insert(tail, 0, 0.0)
    p = []
    batches = uniform_batches(
        cfg.master_seed, "block", cfg.K, 0, cbs[0].B - 1, cfg.trials, uses=cfg.n
    )
    for msgs, seed in batches:
        v = np.stack([encode(cb, msgs[:, k], seed) for k, cb in enumerate(cbs)], axis=-1)
        x = v.reshape(-1, cfg.K) @ run.coefs
        pos = np.searchsorted(pts, x - gaps[0] / 2)  # the one point within d_min/2
        assert np.allclose(pts[pos], x, rtol=1e-12, atol=0)
        first = np.all([cb.bin_of(v[..., k]) == msgs[:, k] for k, cb in enumerate(cbs)], axis=0)
        p.append(stay[pos].reshape(len(msgs), cfg.n).prod(axis=1) * first)
    return np.concatenate(p)


def exact_leakage_bits(K, Q, A, variance, width):
    """I(S; Z_b) for the sum S of K uniform symbols on [-Q, Q] and Z = A*S
    plus noise in bins of ``width``: P(S) from the exact composition counts,
    P(b | s) from Gaussian CDF differences over the bins within 40 sd of A*s."""
    s = np.arange(-K * Q, K * Q + 1)
    p_s = np.array(composition_counts(K, Q), dtype=float) / (2 * Q + 1) ** K
    sd = math.sqrt(variance)
    lo = math.floor((-A * K * Q - 40 * sd) / width)
    edges = width * np.arange(lo, math.floor((A * K * Q + 40 * sd) / width) + 2)
    cdf = np.vectorize(NormalDist().cdf)
    joint = p_s[:, None] * np.diff(cdf((edges - A * s[:, None]) / sd), axis=1)
    indep = p_s[:, None] * joint.sum(axis=0)
    nz = joint > 0
    return float(np.sum(joint[nz] * np.log2(joint[nz] / indep[nz])))


# (Q, config): (K, Q, variance) = (2, 2, 1), (3, 1, 4) and (2, 2, 300), each with h != h_e
LEAKAGE_ORACLE_CFGS = (
    (2, dict(K=2, P_grid=(2e3,), variance=1.0, h=(1.5, 1.0), h_e=(1.2, 0.9), bin_width=1.0)),
    (1, dict(K=3, P_grid=(1e2,), variance=4.0, h=(2, 1, 0.5), h_e=(0.6, 1.0, 1.9), bin_width=1.0)),
    (2, dict(K=2, P_grid=(3e3,), variance=300.0, h=(1.9, 0.6), h_e=(0.7, 1.5), bin_width=4.0)),
)


class TestLeakageRun:
    @pytest.mark.parametrize("Q,cfg", LEAKAGE_ORACLE_CFGS, ids=["k2", "k3-var4", "low-snr"])
    def test_matches_exact_aligned_leakage(self, Q, cfg):
        # the eavesdropper's samples depend on the tuple only through its
        # sum, so the plug-in estimate converges to I(S; Z_b)
        rep = run_leakage(SimConfig(**cfg, epsilon=0.5, leakage_samples=300_000))
        assert rep.Q == Q
        exact = exact_leakage_bits(cfg["K"], rep.Q, rep.A, cfg["variance"], cfg["bin_width"])
        n = rep.samples
        tol = rep.bias_bound_bits + 5 * max(rep.input_entropy_bits, math.log2(n)) / math.sqrt(n)
        assert abs(rep.mi_bits - exact) <= tol, (rep.Q, rep.mi_bits, exact, tol)

    def test_noiseless_exhaustive_matches_sum_entropy(self):
        cfg = SimConfig(
            K=2, epsilon=0.5, P_grid=(1e4,), h=(S2, 1.0), h_e=(1.0, 1.0), variance=0.0
        )
        rep = run_leakage(cfg)
        assert rep.exhaustive
        assert rep.mi_bits == pytest.approx(sum_entropy(2, rep.Q), abs=1e-12)

    @pytest.mark.parametrize("P,h_e", [(1e4, (1.3, 0.7)), (1e7, (1, 1, 1)), (1e8, (0.9, 1.7, 0.6))])
    def test_noiseless_sums_share_a_bin(self, P, h_e):
        # the default width A/10 puts every A*s on a bin edge, so the tuples
        # of one sum share a bin only if their samples agree to the last bit
        K = len(h_e)
        cfg = SimConfig(K=K, epsilon=0.5, P_grid=(P,), h=(S2, 1.0, S3)[:K], h_e=h_e, variance=0.0)
        rep = run_leakage(cfg)
        assert rep.exhaustive and rep.Q >= K
        assert rep.mi_bits == pytest.approx(sum_entropy(K, rep.Q), abs=1e-12)

    @pytest.mark.parametrize("width", [0.0, -1.0, math.nan])
    def test_bad_bin_width_is_refused_before_any_stream(self, width, monkeypatch):
        def no_stream(*args, **kwargs):
            raise AssertionError("a stream was drawn")

        for name in ("stream", "substream"):
            monkeypatch.setattr(simulate, name, no_stream)
        monkeypatch.setattr("secmac.channel.stream", no_stream)  # sampled gains
        with pytest.raises(ParameterError, match="bin width must be positive"):
            run_leakage(SimConfig(K=2, epsilon=0.5, P_grid=(1e4,), bin_width=width,
                                  leakage_samples=1000))
        assert SimConfig(K=2, epsilon=0.5, P_grid=(1e4,), bin_width=math.inf).bin_width == math.inf

    def test_noiseless_sampled_bins_each_sum_once(self):
        cfg = SimConfig(
            K=3,
            epsilon=0.5,
            P_grid=(1e12,),
            h=(S2, 1.0, S3),
            h_e=(1.3, 0.7, 1.1),
            variance=0.0,
            leakage_samples=2000,
            master_seed=4,
        )
        rep = run_leakage(cfg)
        assert not rep.exhaustive
        v = np.concatenate([v for v, _ in uniform_batches(4, "leakage", 3, -rep.Q, rep.Q, 2000)])
        _, counts = np.unique(v.sum(axis=1), return_counts=True)
        assert rep.mi_bits == pytest.approx(entropy_bits(counts / 2000), abs=1e-12)

    def test_residual_for_q1(self):
        cfg = SimConfig(
            K=2, epsilon=0.5, P_grid=(1e2,), h=(S2, 1.0), h_e=(1.0, 1.0), variance=0.0
        )
        rep = run_leakage(cfg)
        assert rep.Q == 1
        assert rep.residual_bits == pytest.approx(
            2 * math.log2(3) - 2.197159723424149, abs=1e-9
        )

    def test_entropy_references_are_those_of_the_alphabet(self):
        # 1000 samples cannot reach all 39^2 tuples: the references still
        # describe uniform inputs on [-Q, Q]^K
        cfg = SimConfig(K=2, epsilon=0.1, P_grid=(1e6,), h=(S2, 1.0), h_e=(1.0, 1.0),
                        leakage_samples=1000)
        rep = run_leakage(cfg)
        h_in = 2 * math.log2(2 * rep.Q + 1)
        assert rep.Q == 19 and not rep.exhaustive
        assert (rep.sum_entropy_bits, rep.input_entropy_bits) == (sum_entropy(2, rep.Q), h_in)
        assert rep.residual_bits == h_in - sum_entropy(2, rep.Q)

    def test_overwhelming_noise_hides_inputs(self):
        cfg = SimConfig(
            K=2,
            epsilon=0.5,
            P_grid=(1e2,),
            h=(S2, 1.0),
            h_e=(1.0, 1.0),
            variance=1e6 * 40.0,  # far above A^2 Q^2 at this power
            bin_width=2000.0,  # ~20 bins over the noise spread keeps bias tiny
            leakage_samples=50_000,
            master_seed=3,
        )
        rep = run_leakage(cfg)
        assert not rep.exhaustive
        assert rep.mi_bits < 0.05
        assert rep.bias_bound_bits < 0.01

    def test_sample_budget_floor(self):
        cfg = SimConfig(
            K=2, epsilon=0.5, P_grid=(1e2,), h=(S2, 1.0), h_e=(1.0, 1.0), leakage_samples=10
        )
        with pytest.raises(ParameterError):
            run_leakage(cfg)

    def test_deterministic(self):
        cfg = SimConfig(
            K=2,
            epsilon=0.5,
            P_grid=(1e2,),
            h=(S2, 1.0),
            h_e=(1.0, 1.0),
            leakage_samples=5000,
            master_seed=5,
        )
        assert run_leakage(cfg) == run_leakage(cfg)

