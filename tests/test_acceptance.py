"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import math
import time
from fractions import Fraction
from itertools import product

import numpy as np

from secmac import (
    ChannelGains,
    GammaStatus,
    NormalizedGains,
    SimConfig,
    build_codebook,
    encode,
    hard_decode,
    kg_profile,
    leakage_estimate,
    min_linear_form,
    normalize_gains,
    received_constellation,
    run_symbol_sweep,
    sample_gains,
    sdof_fit,
    sdof_limit,
    select_params,
    sum_entropy,
    sum_rate_lower_bound,
)
from secmac.cli import main as cli_main
from secmac.rng import stream
from secmac.secrecy import achievable_region

from test_secrecy import adder_spec, oracle_region, random_spec

S2 = math.sqrt(2)
S3 = math.sqrt(3)


def report(criterion: str, ok: bool, detail: str = ""):
    print(f"AC-{criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"AC-{criterion} failed: {detail}"


def test_ac1_sdof_limit_reproduction():
    t0 = time.monotonic()
    eps = 0.01
    details = []
    ok = True
    for K in (2, 3, 4):
        pts = []
        for d in range(4, 17, 2):
            P = 10.0**d
            Q, _ = select_params(P, K, eps)
            pts.append((P, sum_rate_lower_bound(K, Q, 0.0)))
        slope = sdof_fit(pts).slope
        target = sdof_limit(K, eps)
        details.append(f"K={K}: slope={slope:.5f} target={target:.5f}")
        ok = ok and abs(slope - target) <= 0.02
    assert sdof_limit(2, 0.0) == 0.5  # the eps -> 0 endpoint for K=2
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    report("1", ok, "; ".join(details) + f"; runtime={elapsed:.2f}s")


def test_ac2_dmin_oracle_equivalence():
    t0 = time.monotonic()
    mismatches = 0
    for i in range(50):
        K = 2 if i < 25 else 3
        Q = (i % 6) + 1
        gains = normalize_gains(sample_gains(i, K))
        rc = received_constellation(gains, Q, 1.0)
        pts = rc.points
        diffs = np.abs(pts[:, None] - pts[None, :])
        np.fill_diagonal(diffs, np.inf)
        brute = float(diffs.min())
        if rc.d_min != brute:  # bitwise
            mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 30.0
    report("2", ok, f"50 draws, {mismatches} mismatches, runtime={elapsed:.1f}s")


def test_ac3_error_probability_trend():
    t0 = time.monotonic()
    cfg = SimConfig(
        K=2,
        epsilon=0.5,
        P_grid=(1e2, 1e4, 1e6),
        trials=100_000,
        h=(S2, 1.0),
        h_e=(1.0, 1.0),
        master_seed=2026,
        variance=1.0,
    )
    rep = run_symbol_sweep(cfg)
    rows = rep.rows
    nonincreasing = all(
        b.pe_mc <= a.pe_mc or (b.pe_mc_ci_low <= a.pe_mc_ci_high and a.pe_mc_ci_low <= b.pe_mc_ci_high)
        for a, b in zip(rows, rows[1:])
    )
    thresh_1e4 = rows[1].pe_mc < 1e-2
    thresh_1e6 = rows[2].pe_mc < 1e-4
    bound_ok = all(
        r.pe_mc <= r.pe_tail_bound * (2 * r.Q + 1) ** 2 + 3 * (r.pe_mc_ci_high - r.pe_mc_ci_low)
        for r in rows
    )
    elapsed = time.monotonic() - t0
    ok = nonincreasing and thresh_1e4 and thresh_1e6 and bound_ok and elapsed < 60.0
    report(
        "3",
        ok,
        f"pe_mc={[r.pe_mc for r in rows]}, nonincreasing={nonincreasing}, "
        f"pe(1e4)<1e-2: {thresh_1e4}, pe(1e6)<1e-4: {thresh_1e6}, "
        f"bound_ok={bound_ok}, runtime={elapsed:.1f}s",
    )


def test_ac4_gamma_dichotomy():
    holds = []
    for gains in ((S2, 1.0), (S2, S3, 1.0)):
        for Q in (1, 2, 3, 4):
            rc = received_constellation(NormalizedGains(g=gains), Q, 1.0)
            holds.append(
                rc.gamma is GammaStatus.HOLDS
                and rc.points.size == (2 * Q + 1) ** len(gains)
            )
    rc_rat = received_constellation(NormalizedGains(g=(Fraction(1, 2), 1)), 2, 1.0)
    collision = rc_rat.gamma is GammaStatus.VIOLATED
    # g = 1/2 and every p + q/2 are exact in float64, so a zero minimum is
    # an exact integer relation
    residual = min_linear_form([0.5], 2)
    ok = all(holds) and collision and residual == 0
    report(
        "4",
        ok,
        f"independent sets hold={all(holds)}, rational collision={collision}, "
        f"min |p + q/2| over 0 < |q| <= 2 = {residual}",
    )


def test_ac5_khintchine_groshev_constant():
    n_list = (2, 4, 8, 16, 32, 64)
    good = 0
    for i in range(50):
        g = [float(x) for x in normalize_gains(sample_gains(i, 2)).g[:-1]]
        good += kg_profile(g, 0.5, n_list).c_hat > 1e-4
    for i in range(50):
        g = [float(x) for x in normalize_gains(sample_gains(1000 + i, 3)).g[:-1]]
        good += kg_profile(g, 0.5, n_list).c_hat > 1e-4

    # continued-fraction convergents of sqrt(2): residuals |p - q sqrt(2)|
    conv = [(1, 1), (3, 2), (7, 5), (17, 12), (41, 29)]
    cf_ok = True
    for p, q in conv:
        cf_ok = cf_ok and abs(min_linear_form([S2], q) - abs(p - q * S2)) <= 1e-12

    ok = good >= 95 and cf_ok
    report("5", ok, f"c_hat>1e-4 in {good}/100 draws, convergent residuals match={cf_ok}")


def test_ac6_region_oracle_equivalence():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(50):
        spec = random_spec(rng)
        region = achievable_region(spec)
        want_constraints, want_sum = oracle_region(spec)
        got = dict(region.constraints)
        for mask, want in want_constraints.items():
            worst = max(worst, abs(got[mask] - want))
        worst = max(worst, abs(region.sum_bound - want_sum))
    # dyadic pmfs make these entropies exact in floats, so demand equality
    analytic_ok = achievable_region(adder_spec("constant")).sum_bound == 1.5
    analytic_ok &= achievable_region(adder_spec("independent")).sum_bound == 1.5
    analytic_ok &= achievable_region(adder_spec("equal")).sum_bound == 0.0
    ok = worst <= 1e-9 and bool(analytic_ok)
    report("6", ok, f"50 random specs, worst deviation {worst:.2e}; analytic cases ok={bool(analytic_ok)}")


def test_ac7_equivocation_arithmetic():
    counts = {}
    for a, b in product(range(-1, 2), repeat=2):
        counts[a + b] = counts.get(a + b, 0) + 1
    oracle = -sum(c / 9 * math.log2(c / 9) for c in counts.values())
    entropy_ok = abs(sum_entropy(2, 1) - oracle) <= 1e-9

    residual_ok = all(
        K * math.log2(2 * Q + 1) - sum_entropy(K, Q) > 0
        for K in (2, 3, 4, 5)
        for Q in range(1, 51)
    )

    grids = np.meshgrid(np.arange(-1, 2), np.arange(-1, 2), indexing="ij")
    tuples = np.tile(np.stack([g.ravel() for g in grids], axis=1), (112, 1))
    z = 100.0 * tuples.sum(axis=1).astype(float)
    mi, _ = leakage_estimate(tuples, z, 10.0, 1)
    leak_ok = abs(mi - sum_entropy(2, 1)) <= 0.01

    ok = entropy_ok and residual_ok and leak_ok
    report(
        "7",
        ok,
        f"sum_entropy(2,1)={sum_entropy(2, 1):.9f} vs oracle {oracle:.9f}; "
        f"residual>0 for K in 2..5, Q in 1..50: {residual_ok}; "
        f"noiseless leakage gap {abs(mi - sum_entropy(2, 1)):.2e}",
    )


def test_ac8_noiseless_end_to_end():
    failures = 0
    for seed in range(100):
        if seed % 2 == 0:
            gains, n, Q = (S2, 1.0), 8, 3
        else:
            gains, n, Q = (S2, S3, 1.0), 7, 2
        K = len(gains)
        g = NormalizedGains(g=gains)
        ch = ChannelGains(h=gains, h_e=(1.0,) * K)
        A = 50.0
        rc = received_constellation(g, Q, A)
        cbs = [build_codebook(n, Q, B=4, L=2, seed=seed, user_k=k) for k in range(K)]
        msgs = [int(stream(seed, "m", k).integers(0, 4)) for k in range(K)]
        # the physical channel: inputs x_k = A*v_k/h_{k,e}, output sum_k h_k x_k
        v = np.stack([encode(cbs[k], msgs[k], seed=seed) for k in range(K)])
        y = np.array(ch.h) @ (A * v / np.array(ch.h_e)[:, None])
        dec = hard_decode(y, rc)
        if [cb.bin_of(dec[:, k]) for k, cb in enumerate(cbs)] != msgs:
            failures += 1
    report("8", failures == 0, f"100 seeds, {failures} round-trip failures")


SWEEP_CONFIG = """\
k = 2
epsilon = 0.5
p_grid = 1e2,1e4,1e6
trials = 100000
h = 1.4142135623730951,1
h_e = 1,1
variance = 1
"""


def test_ac9_determinism_byte_identical(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CONFIG)
    pairs = []
    for tag, argv in [
        ("sweep", ["sweep", "--config", str(cfg), "--seed", "2026"]),
        ("kg", ["kg", "--gains", "1.4142135623730951", "--eps", "0.5", "--n-list", "2,4,8,16"]),
    ]:
        a, b = tmp_path / f"{tag}_a.csv", tmp_path / f"{tag}_b.csv"
        assert cli_main(argv + ["--out", str(a)]) == 0
        assert cli_main(argv + ["--out", str(b)]) == 0
        pairs.append((tag, a.read_bytes() == b.read_bytes()))
    capsys.readouterr()  # swallow CLI prints so the report line stands alone
    ok = all(same for _, same in pairs)
    report("9", ok, ", ".join(f"{tag}: identical={same}" for tag, same in pairs))
