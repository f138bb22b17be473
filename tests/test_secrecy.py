import math
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secmac import (
    DiscreteMACSpec,
    ParameterError,
    SizeCapError,
    achievable_region,
    composition_counts,
    leakage_estimate,
    load_mac_spec,
    mutual_information,
    sdof_fit,
    sdof_limit,
    select_params,
    sum_entropy,
    sum_rate_lower_bound,
)
from secmac.cli import main as cli_main
from secmac.constellation import mixed_radix_index
from secmac.secrecy import entropy_bits
from secmac.simulate import fmt


def h2(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def adder_spec(z_mode="constant"):
    """K=2 binary adder MAC: Y = X1 + X2; Z per mode."""
    pu = (np.array([0.5, 0.5]), np.array([0.5, 0.5]))
    pxu = (np.eye(2), np.eye(2))
    if z_mode == "constant":
        chan = np.zeros((2, 2, 3, 1))
        for x1, x2 in product(range(2), repeat=2):
            chan[x1, x2, x1 + x2, 0] = 1.0
    elif z_mode == "equal":  # Z = Y
        chan = np.zeros((2, 2, 3, 3))
        for x1, x2 in product(range(2), repeat=2):
            chan[x1, x2, x1 + x2, x1 + x2] = 1.0
    else:  # Z independent uniform binary
        chan = np.zeros((2, 2, 3, 2))
        for x1, x2 in product(range(2), repeat=2):
            chan[x1, x2, x1 + x2, :] = 0.5
    return DiscreteMACSpec(K=2, p_u=pu, p_x_given_u=pxu, p_yz_given_x=chan)


def random_spec(rng, K=2, max_alpha=3):
    """Random small wiretap MAC with dirichlet-ish pmfs."""
    u_sizes = rng.integers(2, max_alpha + 1, K)
    x_sizes = rng.integers(2, max_alpha + 1, K)
    y_size = int(rng.integers(2, max_alpha + 1))
    z_size = int(rng.integers(2, max_alpha + 1))

    def pmf(shape):
        raw = rng.random(shape) + 1e-3
        return raw / raw.sum(axis=-1, keepdims=True)

    pu = tuple(pmf(int(s)) for s in u_sizes)
    pxu = tuple(pmf((int(u), int(x))) for u, x in zip(u_sizes, x_sizes))
    chan = pmf(tuple(int(x) for x in x_sizes) + (y_size * z_size,)).reshape(
        tuple(int(x) for x in x_sizes) + (y_size, z_size)
    )
    return DiscreteMACSpec(K=K, p_u=pu, p_x_given_u=pxu, p_yz_given_x=chan)


def spec_text(spec):
    """``spec`` as a spec file, every probability written losslessly."""
    def values(a):
        return " ".join(map(repr, np.ravel(a).tolist()))

    lines = [f"k = {spec.K}",
             f"u_sizes = {values([p.size for p in spec.p_u])}",
             f"x_sizes = {values([p.shape[1] for p in spec.p_x_given_u])}",
             f"y_size = {spec.p_yz_given_x.shape[-2]}",
             f"z_size = {spec.p_yz_given_x.shape[-1]}"]
    for k in range(spec.K):
        lines += [f"p_u_{k + 1} = {values(spec.p_u[k])}",
                  f"p_x_given_u_{k + 1} = {values(spec.p_x_given_u[k])}"]
    return "\n".join(lines + [f"p_yz_given_x = {values(spec.p_yz_given_x)}"]) + "\n"


def oracle_region(spec):
    """Full-enumeration oracle: joint over (u, x, y, z) via nested loops,
    every mutual information straight from its definition."""
    K = spec.K
    u_ranges = [range(p.size) for p in spec.p_u]
    y_r, z_r = map(range, spec.p_yz_given_x.shape[-2:])
    x_ranges = [range(p.shape[1]) for p in spec.p_x_given_u]

    joint = {}  # (u_tuple, y, z) -> prob
    for us in product(*u_ranges):
        pu = 1.0
        for k, u in enumerate(us):
            pu *= spec.p_u[k][u]
        for xs in product(*x_ranges):
            px = 1.0
            for k, (u, x) in enumerate(zip(us, xs)):
                px *= spec.p_x_given_u[k][u, x]
            if px == 0:
                continue
            for y in y_r:
                for z in z_r:
                    p = pu * px * spec.p_yz_given_x[xs + (y, z)]
                    if p > 0:
                        joint[us + (y, z)] = joint.get(us + (y, z), 0.0) + p

    def marg(keyfun):
        out = {}
        for key, p in joint.items():
            k2 = keyfun(key)
            out[k2] = out.get(k2, 0.0) + p
        return out

    def cond_mi(s_idx, c_idx):
        # I(U_S; Y | U_C) = sum p log2( p(c) p(s,y,c) / (p(s,c) p(y,c)) )
        p_syc = marg(lambda k: (tuple(k[i] for i in s_idx), k[K], tuple(k[i] for i in c_idx)))
        p_sc = marg(lambda k: (tuple(k[i] for i in s_idx), tuple(k[i] for i in c_idx)))
        p_yc = marg(lambda k: (k[K], tuple(k[i] for i in c_idx)))
        p_c = marg(lambda k: tuple(k[i] for i in c_idx))
        total = 0.0
        for (s, y, c), p in p_syc.items():
            total += p * math.log2(p_c[c] * p / (p_sc[(s, c)] * p_yc[(y, c)]))
        return total

    def mi(a_pos, b_pos):
        p_ab = marg(lambda k: (tuple(k[i] for i in a_pos), tuple(k[i] for i in b_pos)))
        p_a = marg(lambda k: tuple(k[i] for i in a_pos))
        p_b = marg(lambda k: tuple(k[i] for i in b_pos))
        return sum(
            p * math.log2(p / (p_a[a] * p_b[b])) for (a, b), p in p_ab.items()
        )

    constraints = {}
    for mask in range(1, 2**K - 1):
        s_idx = [k for k in range(K) if (mask >> k) & 1]
        c_idx = [k for k in range(K) if not (mask >> k) & 1]
        constraints[mask] = cond_mi(s_idx, c_idx)
    users = list(range(K))
    sum_bound = max(0.0, mi(users, [K]) - mi(users, [K + 1]))
    return constraints, sum_bound


class TestMutualInformation:
    def test_independent(self):
        joint = np.outer([0.3, 0.7], [0.25, 0.25, 0.5])
        assert mutual_information(joint) == 0.0

    def test_perfect_correlation(self):
        assert mutual_information(np.diag([0.5, 0.5])) == pytest.approx(1.0, abs=1e-14)

    def test_binary_symmetric_flip(self):
        f = 0.11
        joint = 0.5 * np.array([[1 - f, f], [f, 1 - f]])
        # closed-form binary-entropy oracle
        assert mutual_information(joint) == pytest.approx(1 - h2(f), rel=1e-12)
        assert mutual_information(joint) == pytest.approx(0.500084041835472, rel=1e-10)

    def test_not_normalized(self):
        with pytest.raises(ParameterError):
            mutual_information(np.array([[0.5, 0.6]]))

    def test_negative_entry(self):
        with pytest.raises(ParameterError):
            mutual_information(np.array([[1.1, -0.1]]))

    def test_nan_entry(self):
        # NaN fails every comparison: the sum test alone let this table through,
        # and its NaN cells dropped out of the entropies (0.0 bits came back)
        with pytest.raises(ParameterError, match="non-finite"):
            mutual_information(np.array([[np.nan, 0.5], [0.25, 0.25]]))


class TestAchievableRegion:
    def test_adder_constant_z(self):
        region = achievable_region(adder_spec("constant"))
        bounds = dict(region.constraints)
        assert bounds[1] == pytest.approx(1.0, abs=1e-12)
        assert bounds[2] == pytest.approx(1.0, abs=1e-12)
        assert region.sum_bound == pytest.approx(1.5, abs=1e-12)

    def test_fully_revealing_eavesdropper(self):
        region = achievable_region(adder_spec("equal"))
        assert region.sum_bound == 0.0

    def test_independent_eavesdropper(self):
        region = achievable_region(adder_spec("independent"))
        # I(U;Z) = 0 so the sum bound is exactly I(U;Y) = H(Y) = 1.5
        assert region.sum_bound == pytest.approx(1.5, abs=1e-12)

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(2024)
        for _ in range(10):
            spec = random_spec(rng)
            region = achievable_region(spec)
            want_constraints, want_sum = oracle_region(spec)
            got = dict(region.constraints)
            for mask, want in want_constraints.items():
                assert got[mask] == pytest.approx(want, abs=1e-9)
            assert region.sum_bound == pytest.approx(want_sum, abs=1e-9)

    @pytest.mark.parametrize("K", [2, 3])
    def test_constraints_are_the_csv_rows(self, tmp_path, capsys, K):
        # one (mask, bound) pair per proper subset, in mask order, and the
        # region command writes exactly these pairs before the sum row
        spec = random_spec(np.random.default_rng(K), K=K)
        region = achievable_region(spec)
        bounds = dict(region.constraints)
        assert list(bounds) == list(range(1, 2**K - 1))
        path, out = tmp_path / "r.spec", tmp_path / "r.csv"
        path.write_text(spec_text(spec))
        assert cli_main(["region", "--spec", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert {int(m): float(b) for m, b in rows[:-1]} == bounds
        assert rows[-1] == [str(2**K - 1), fmt(region.sum_bound)]

    def test_y_relabeling_invariance(self):
        spec = adder_spec("independent")
        perm = [2, 0, 1]
        chan = spec.p_yz_given_x[:, :, perm, :]
        relabeled = DiscreteMACSpec(
            K=2, p_u=spec.p_u, p_x_given_u=spec.p_x_given_u, p_yz_given_x=chan
        )
        a = achievable_region(spec)
        b = achievable_region(relabeled)
        assert a.sum_bound == pytest.approx(b.sum_bound, abs=1e-12)
        for (s1, b1), (s2, b2) in zip(a.constraints, b.constraints):
            assert s1 == s2 and b1 == pytest.approx(b2, abs=1e-12)


def loop_counts(K, Q):
    """Composition counts by the direct double-loop convolution."""
    width = 2 * Q + 1
    counts = [1] * width
    for _ in range(K - 1):
        new = [0] * (len(counts) + width - 1)
        for i, c in enumerate(counts):
            for j in range(width):
                new[i + j] += c
        counts = new
    return counts


def loop_sum_entropy(K, Q):
    if Q == 0:
        return 0.0
    counts = loop_counts(K, Q)
    total = (2 * Q + 1) ** K
    return math.log2(total) - sum(c * math.log2(c) for c in counts if c > 1) / total


class TestCompositionCounts:
    @pytest.mark.parametrize("K", range(1, 7))
    @pytest.mark.parametrize("Q", range(0, 9))
    def test_matches_double_loop(self, K, Q):
        counts = composition_counts(K, Q)
        assert counts == loop_counts(K, Q)
        assert all(type(c) is int for c in counts)
        assert len(counts) == 2 * K * Q + 1
        assert sum(counts) == (2 * Q + 1) ** K
        assert counts == counts[::-1]

    def test_bad_args(self):
        for K, Q in ((0, 1), (2, -1)):
            with pytest.raises(ParameterError):
                composition_counts(K, Q)
        with pytest.raises(SizeCapError):
            composition_counts(2, 10**7)

    @pytest.mark.parametrize("K,Q", [(2236, 1), (1000, 5), (10**6, 1)])
    def test_work_past_cap_is_refused(self, K, Q):
        # K window sums over a 2KQ+1 support: 2236 * 4473 passes 1e7 cells
        with pytest.raises(SizeCapError, match="K \\* \\(2KQ\\+1\\)"):
            composition_counts(K, Q)

    def test_exact_past_int64(self):
        counts = composition_counts(12, 77)
        assert max(counts).bit_length() == 79
        assert sum(counts) == 155**12
        assert counts == counts[::-1]

    @pytest.mark.parametrize("K, Q", [(12, 77), (16, 100), (3, 0), (1, 5)])
    def test_sum_entropy_bit_identical(self, K, Q):
        assert sum_entropy(K, Q).hex() == loop_sum_entropy(K, Q).hex()


class TestSumEntropy:
    def test_single_user(self):
        for Q in (1, 3, 10):
            assert sum_entropy(1, Q) == pytest.approx(math.log2(2 * Q + 1), rel=1e-14)

    def test_k2_q1_exhaustive_oracle(self):
        counts = {}
        for a, b in product(range(-1, 2), repeat=2):
            counts[a + b] = counts.get(a + b, 0) + 1
        want = -sum(c / 9 * math.log2(c / 9) for c in counts.values())
        assert sum_entropy(2, 1) == pytest.approx(want, abs=1e-12)
        assert sum_entropy(2, 1) == pytest.approx(2.197159723424149, abs=1e-9)

    def test_strictly_below_support_log(self):
        for K in (2, 3, 4):
            for Q in (1, 2, 5):
                assert sum_entropy(K, Q) < math.log2(2 * K * Q + 1)

    @pytest.mark.parametrize("K", [646, 700])
    def test_counts_past_the_float_range(self, K):
        # 3^646 passes 2^1023: c log2 c no longer fits a float
        h = sum_entropy(K, 1)
        assert math.isfinite(h)
        assert sum_entropy(K - 1, 1) < h < math.log2(2 * K + 1)

    def test_monotone_in_q_and_k(self):
        vals_q = [sum_entropy(2, Q) for Q in range(1, 8)]
        assert all(a < b for a, b in zip(vals_q, vals_q[1:]))
        vals_k = [sum_entropy(K, 2) for K in range(1, 6)]
        assert all(a < b for a, b in zip(vals_k, vals_k[1:]))


class TestSumRateLowerBound:
    def test_small_q_clamps(self):
        assert sum_rate_lower_bound(2, 1, 0.0) == 0.0
        raw = 2 * math.log2(3) - math.log2(5) - 1
        assert raw < 0  # the clamp is real

    def test_q100(self):
        want = 2 * math.log2(201) - math.log2(401) - 1
        got = sum_rate_lower_bound(2, 100, 0.0)
        assert got == pytest.approx(want, rel=1e-14)
        assert got == pytest.approx(5.654644955902938, rel=1e-12)

    def test_fano_dominates(self):
        assert sum_rate_lower_bound(2, 100, 1.0) == 0.0

    def test_bad_args(self):
        with pytest.raises(ParameterError):
            sum_rate_lower_bound(2, 0, 0.0)
        with pytest.raises(ParameterError):
            sum_rate_lower_bound(2, 5, 1.5)


class TestSdof:
    def test_limit_k2_eps0(self):
        assert sdof_limit(2, 0.0) == 0.5

    def test_limit_values(self):
        assert sdof_limit(2, 0.1) == pytest.approx(0.9 / 2.1, rel=1e-14)
        assert sdof_limit(3, 0.01) == pytest.approx(2 * 0.99 / 3.01, rel=1e-14)

    def test_fit_exact_line(self):
        pts = [(10.0**d, 0.5 * 0.5 * math.log2(10.0**d)) for d in range(2, 10)]
        fit = sdof_fit(pts)
        assert fit.slope == pytest.approx(0.5, abs=1e-12)
        assert fit.residual == pytest.approx(0.0, abs=1e-12)

    def test_fit_constant(self):
        fit = sdof_fit([(10.0, 1.0), (100.0, 1.0), (1000.0, 1.0)])
        assert fit.slope == pytest.approx(0.0, abs=1e-14)

    def test_fit_degenerate(self):
        with pytest.raises(ParameterError):
            sdof_fit([(10.0, 1.0), (10.0, 2.0)])
        with pytest.raises(ParameterError):
            sdof_fit([(0.5, 1.0), (10.0, 2.0)])

    def test_closed_form_chain_k2(self):
        eps = 0.01
        pts = []
        for d in range(4, 17, 2):
            P = 10.0**d
            Q, _ = select_params(P, 2, eps)
            pts.append((P, sum_rate_lower_bound(2, Q, 0.0)))
        fit = sdof_fit(pts)
        assert abs(fit.slope - sdof_limit(2, eps)) < 0.02

    def test_eta_converges_upward(self):
        eps = 0.01
        K = 2
        diffs = []
        for d in range(4, 17, 2):
            P = 10.0**d
            Q, _ = select_params(P, K, eps)
            eta = sum_rate_lower_bound(K, Q, 0.0) / (0.5 * math.log2(P))
            diffs.append(sdof_limit(K, eps) - eta)
        assert all(d > 0 for d in diffs)
        assert all(a > b for a, b in zip(diffs, diffs[1:]))


class TestLeakageEstimate:
    @staticmethod
    def exhaustive_tuples(K, Q, reps):
        grids = np.meshgrid(*[np.arange(-Q, Q + 1)] * K, indexing="ij")
        tuples = np.stack([g.ravel() for g in grids], axis=1)
        return np.tile(tuples, (reps, 1))

    def test_noiseless_exhaustive(self):
        A = 100.0
        tuples = self.exhaustive_tuples(2, 1, 112)  # 1008 samples
        z = A * tuples.sum(axis=1).astype(float)
        mi, _ = leakage_estimate(tuples, z, A / 10, 1)
        assert mi == pytest.approx(sum_entropy(2, 1), abs=1e-12)
        assert mi == pytest.approx(2.197159723424149, abs=1e-9)

    def test_pure_noise(self):
        rng = np.random.default_rng(0)
        tuples = rng.integers(-1, 2, size=(100_000, 2))
        z = rng.normal(size=100_000)
        mi, _ = leakage_estimate(tuples, z, 0.5, 1)
        assert mi < 0.05

    def test_single_bin(self):
        tuples = self.exhaustive_tuples(2, 1, 120)
        z = tuples.sum(axis=1).astype(float)
        mi, _ = leakage_estimate(tuples, z, math.inf, 1)
        assert mi == 0.0

    def test_sample_floor(self):
        tuples = self.exhaustive_tuples(2, 1, 1)
        z = tuples.sum(axis=1).astype(float)
        with pytest.raises(ParameterError, match="1000"):
            leakage_estimate(tuples, z, 1.0, 1)

    @pytest.mark.parametrize("scale,bin_width", [(1.0, 1e-300), (1e154, 1e-10)])
    def test_bin_index_past_int64_is_refused(self, scale, bin_width):
        tuples = self.exhaustive_tuples(2, 1, 120)
        z = scale * tuples.sum(axis=1).astype(float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="int64"):
                leakage_estimate(tuples, z, bin_width, 1)

    def test_bad_bin_width(self):
        tuples = self.exhaustive_tuples(2, 1, 120)
        z = tuples.sum(axis=1).astype(float)
        with pytest.raises(ParameterError):
            leakage_estimate(tuples, z, 0.0, 1)

    def test_entropy_references_use_callers_q(self):
        # inputs never reach the alphabet edge: Q = 3 only bounds them, so
        # the estimate is that of Q = 2 (the references are run_leakage's)
        tuples = self.exhaustive_tuples(2, 2, 40)
        z = tuples.sum(axis=1).astype(float)
        assert leakage_estimate(tuples, z, 0.5, 3) == leakage_estimate(tuples, z, 0.5, 2)

    def test_tuples_outside_alphabet(self):
        tuples = self.exhaustive_tuples(2, 2, 40)
        z = tuples.sum(axis=1).astype(float)
        with pytest.raises(ParameterError, match="alphabet"):
            leakage_estimate(tuples, z, 0.5, 1)

    @staticmethod
    def dense_reference(tuples, z, bin_width):
        """(mi_bits, occupied) from the full (tuples x bins) table."""
        bins = np.floor(z / bin_width).astype(np.int64) if math.isfinite(bin_width) else 0 * z
        rows = sorted(set(map(tuple, tuples.tolist())))
        cols = sorted(set(bins.tolist()))
        table = np.zeros((len(rows), len(cols)))
        r_of, c_of = {r: i for i, r in enumerate(rows)}, {c: j for j, c in enumerate(cols)}
        for t, b in zip(map(tuple, tuples.tolist()), bins.tolist()):
            table[r_of[t], c_of[b]] += 1
        return mutual_information(table / len(z)), int(np.count_nonzero(table))

    @settings(max_examples=60, deadline=None)
    @given(
        K=st.integers(1, 3),
        Q=st.integers(0, 3),
        sd=st.sampled_from([0.0, 0.3, 2.0]),
        bin_width=st.sampled_from([0.25, 1.0, 7.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sparse_counts_match_dense_table(self, K, Q, sd, bin_width, seed):
        rng = np.random.default_rng(seed)
        tuples = rng.integers(-Q, Q + 1, size=(1500, K))
        z = tuples.sum(axis=1) + sd * rng.standard_normal(1500)
        mi, bias = leakage_estimate(tuples, z, bin_width, Q)
        want, occupied = self.dense_reference(tuples, z, bin_width)
        assert mi == pytest.approx(want, abs=1e-12)
        assert bias == (occupied - 1) / (2 * len(z) * math.log(2))

    def test_infinite_bin_width_is_exactly_zero(self):
        rng = np.random.default_rng(5)
        tuples = rng.integers(-4, 5, size=(5000, 3))
        mi, _ = leakage_estimate(tuples, rng.standard_normal(5000), math.inf, 4)
        assert mi == 0.0

    def test_alphabet_past_int64_falls_back_to_rows(self):
        # (2*77 + 1)^12 > 2^63: tuple ids come from the rows themselves
        assert 155**12 > 2**63
        rng = np.random.default_rng(1)
        tuples = rng.integers(-77, 78, size=(1200, 12))
        tuples[600:] = tuples[:600]  # every tuple seen twice
        z = rng.standard_normal(1200)
        mi, bias = leakage_estimate(tuples, z, 0.5, 77)
        want, occupied = self.dense_reference(tuples, z, 0.5)
        assert mi == pytest.approx(want, abs=1e-12)
        assert bias == (occupied - 1) / (2 * 1200 * math.log(2))

    @pytest.mark.parametrize("entry", [78, -2**63, 0.5], ids=["past-q", "int64-min", "float"])
    def test_ranked_rows_keep_the_alphabet(self, entry):
        # the row ranking takes no code, so it checks the tuples itself
        tuples = np.random.default_rng(1).integers(-77, 78, size=(1200, 12))
        tuples = tuples.astype(type(entry))
        tuples[7, 3] = entry
        with pytest.raises(ParameterError, match="alphabet"):
            leakage_estimate(tuples, np.zeros(1200), 0.5, 77)

    def test_most_negative_int64_is_outside_alphabet(self):
        # |-2^63| wraps to -2^63 in int64, which an abs-based check lets through
        tuples = self.exhaustive_tuples(2, 1, 120)
        tuples[0, 0] = np.iinfo(np.int64).min
        z = tuples[:, 1].astype(float)
        with pytest.raises(ParameterError, match="alphabet"):
            leakage_estimate(tuples, z, 0.5, 1)

    def test_float_tuples_are_refused(self):
        # a cast to int64 would alias every tuple on (-1, 1)^2 to (0, 0)
        rng = np.random.default_rng(3)
        tuples = rng.uniform(-1, 1, size=(1200, 2))
        with pytest.raises(ParameterError, match="signed integers"):
            leakage_estimate(tuples, tuples.sum(axis=1), 0.1, 1)

    @staticmethod
    def three_unique_reference(tuples, z, bin_width, Q):
        """(mi_bits, bias_bound_bits) counted by three ``np.unique`` passes:
        tuple ids, bin ids with their counts, and the joint ids."""
        n, K = tuples.shape
        bins = np.floor(z / bin_width).astype(np.int64)
        if (2 * Q + 1) ** K < 2**63:
            _, tuple_ids = np.unique(mixed_radix_index(tuples, K, Q), return_inverse=True)
        else:
            _, tuple_ids = np.unique(tuples, axis=0, return_inverse=True)
        _, bin_ids, bin_counts = np.unique(bins, return_inverse=True, return_counts=True)
        _, joint_counts = np.unique(tuple_ids * bin_counts.size + bin_ids, return_counts=True)
        mi = max(
            0.0,
            entropy_bits(np.bincount(tuple_ids) / n)
            + entropy_bits(bin_counts / n)
            - entropy_bits(joint_counts / n),
        )
        return mi, (joint_counts.size - 1) / (2.0 * n * math.log(2.0))

    @settings(max_examples=150, deadline=None)
    @given(
        K=st.integers(1, 5),
        Q=st.integers(0, 5),
        shift=st.sampled_from([0.0, -40.0, -3e5]),
        sd=st.sampled_from([0.0, 0.3, 2.0, 1e4]),
        bin_width=st.sampled_from([1e-3, 0.25, 1.0, 7.0, math.inf]),
        one_tuple=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # (2*3000 + 1)^5 * bin slots >= 2^63: the codes are ranked before packing
    @example(K=5, Q=3000, shift=0.0, sd=0.0, bin_width=100.0, one_tuple=False, seed=7)
    # (2*77 + 1)^12 >= 2^63: the rows are ranked (and the bins, which span past n)
    @example(K=12, Q=77, shift=0.0, sd=1.0, bin_width=0.5, one_tuple=False, seed=1)
    def test_counts_match_three_unique_reference(
        self, K, Q, shift, sd, bin_width, one_tuple, seed
    ):
        rng = np.random.default_rng(seed)
        tuples = rng.integers(-Q, Q + 1, size=(1200, K))
        if one_tuple:
            tuples[:] = tuples[0]
        z = shift + tuples.sum(axis=1) + sd * rng.standard_normal(1200)
        got = leakage_estimate(tuples, z, bin_width, Q)
        assert got == self.three_unique_reference(tuples, z, bin_width, Q)

    def test_bias_bound_formula(self):
        tuples = self.exhaustive_tuples(2, 1, 112)
        z = tuples.sum(axis=1).astype(float)
        _, bias = leakage_estimate(tuples, z, 0.1, 1)
        occupied = 9  # nine tuple classes, each in exactly one z bin
        want = (occupied - 1) / (2 * len(z) * math.log(2))
        assert bias == pytest.approx(want, rel=1e-12)


class TestMacSpecFile:
    ADDER = """\
# binary adder with constant eavesdropper output
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

    def test_load_and_region(self, tmp_path):
        path = tmp_path / "adder.spec"
        path.write_text(self.ADDER)
        spec = load_mac_spec(str(path))
        region = achievable_region(spec)
        assert region.sum_bound == pytest.approx(1.5, abs=1e-12)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.spec"
        path.write_text(self.ADDER + "bogus = 1\n")
        with pytest.raises(ParameterError, match="bogus"):
            load_mac_spec(str(path))

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "bad.spec"
        path.write_text("k = 2\n")
        with pytest.raises(ParameterError, match="u_sizes"):
            load_mac_spec(str(path))

    def test_bad_pmf_rejected(self, tmp_path):
        path = tmp_path / "bad.spec"
        path.write_text(self.ADDER.replace("p_u_1 = 0.5 0.5", "p_u_1 = 0.5 0.6"))
        with pytest.raises(ParameterError):
            load_mac_spec(str(path))

    def test_bad_tokens_and_shapes_rejected(self, tmp_path):
        path = tmp_path / "bad.spec"
        for old, new in [("k = 2", "k = x"), ("p_x_given_u_1 = 1 0 0 1", "p_x_given_u_1 = 1 0 0"),
                         ("y_size = 3", "y_size = -3"), ("x_sizes = 2 2", "x_sizes = 2")]:
            path.write_text(self.ADDER.replace(old, new))
            with pytest.raises(ParameterError, match=r"bad\.spec:\d+: "):
                load_mac_spec(str(path))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ParameterError, match="cannot read"):
            load_mac_spec(str(tmp_path / "absent.spec"))

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_pmf_rejected(self, tmp_path, bad):
        path = tmp_path / "bad.spec"
        path.write_text(self.ADDER.replace("p_yz_given_x = 1 0 0", f"p_yz_given_x = {bad} 0 0"))
        with pytest.raises(ParameterError, match="non-finite"):
            load_mac_spec(str(path))
