import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secmac import (
    GammaStatus,
    NormalizedGains,
    ParameterError,
    SizeCapError,
    effective_power,
    hard_decode,
    min_distance,
    pe_upper_bound,
    received_constellation,
    sample_gains,
    normalize_gains,
    select_params,
)
from secmac.constellation import (
    ReceivedConstellation,
    mixed_radix_digits,
    mixed_radix_index,
    tuple_sums,
)

S2 = math.sqrt(2)
S3 = math.sqrt(3)
G_S2 = NormalizedGains(g=(S2, 1.0))


def brute_force_points(gains, Q, A):
    """Independent enumeration of the received point set."""
    vals = sorted(
        A * sum(gk * vk for gk, vk in zip(gains, v))
        for v in product(range(-Q, Q + 1), repeat=len(gains))
    )
    return vals


def brute_force_exact(gains, Q, A):
    """Fraction oracle: (points, collision, d_min) of an exact constellation."""
    sums = [
        sum(Fraction(gk) * vk for gk, vk in zip(gains, v))
        for v in product(range(-Q, Q + 1), repeat=len(gains))
    ]
    vals = sorted(set(sums))
    collision = len(vals) < len(sums)
    if collision:
        d_min = 0.0
    elif len(vals) < 2:
        d_min = math.inf
    else:
        d_min = min(A * float(b - a) for a, b in zip(vals, vals[1:]))
    return [A * float(v) for v in vals], collision, d_min


def brute_force_min_gap(points):
    """O(M^2) pairwise minimum distance."""
    pts = np.asarray(points)
    diffs = np.abs(pts[:, None] - pts[None, :])
    np.fill_diagonal(diffs, np.inf)
    return float(diffs.min())


class TestSelectParams:
    def test_p_tilde_1e6(self):
        # oracle: exponents are exactly 3/14 and 2/7 for K=2, eps=0.1
        Q, A = select_params(1e6, 2, 0.1)
        assert Q == 19
        assert A == pytest.approx(10 ** (12 / 7), rel=1e-12)
        assert A == pytest.approx(51.7947467923121, rel=1e-10)

    def test_unit_power(self):
        assert select_params(1.0, 2, 0.1) == (1, 1.0)

    def test_p_tilde_1e4_eps_half(self):
        Q, A = select_params(1e4, 2, 0.5)
        assert Q == 2
        assert A == pytest.approx(10**1.6, rel=1e-12)
        assert A == pytest.approx(39.8107170553497, rel=1e-10)

    def test_infeasible_power(self):
        with pytest.raises(ParameterError, match="infeasible"):
            select_params(0.5, 2, 0.1)

    def test_non_finite_power(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ParameterError, match="finite"):
                select_params(bad, 2, 0.1)

    @pytest.mark.parametrize("K", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.5])
    def test_power_feasibility(self, K, eps):
        for exp in range(0, 17):
            P_t = 10.0**exp
            Q, A = select_params(P_t, K, eps)
            assert Q >= 1
            assert A * A * Q * Q <= P_t


class TestReceivedConstellation:
    def test_sqrt2_q1(self):
        rc = received_constellation(G_S2, 1, 1.0)
        assert rc.points.size == 9
        assert rc.gamma is GammaStatus.HOLDS
        # exhaustive pairwise-difference oracle: smallest gap is sqrt(2)-1
        oracle = brute_force_min_gap(brute_force_points((S2, 1.0), 1, 1.0))
        assert rc.d_min == oracle
        assert rc.d_min == pytest.approx(S2 - 1, rel=1e-12)

    def test_rational_float_collision(self):
        # 2 * 0.5 == 1 * 1 exactly in binary floats
        rc = received_constellation(NormalizedGains(g=(0.5, 1.0)), 2, 1.0)
        assert rc.gamma is GammaStatus.VIOLATED
        assert rc.d_min == 0.0
        assert rc.points.size < 25

    def test_degenerate_q0(self):
        rc = received_constellation(NormalizedGains(g=(1.0, 1.0, 1.0)), 0, 1.0)
        assert rc.points.tolist() == [0.0]
        assert math.isinf(rc.d_min)
        assert pe_upper_bound(rc.d_min) == (0.0, 0.0)

    def test_exact_rational_collision(self):
        rc = received_constellation(NormalizedGains(g=(Fraction(1, 2), 1)), 2, 1.0)
        assert rc.gamma is GammaStatus.VIOLATED
        assert rc.d_min == 0.0

    def test_exact_rational_no_collision_small_q(self):
        # denominators too large to collide within Q=1
        rc = received_constellation(NormalizedGains(g=(Fraction(2, 7), 1)), 1, 1.0)
        assert rc.gamma is GammaStatus.HOLDS
        assert rc.points.size == 9

    def test_suspect_near_collision(self):
        rc = received_constellation(NormalizedGains(g=(0.5 + 1e-13, 1.0)), 2, 1.0)
        assert rc.gamma is GammaStatus.SUSPECT

    @pytest.mark.parametrize(
        "gains,Q",
        [((S2, 1.0), 4), ((S2, S3, 1.0), 4)],
    )
    def test_gamma_holds_for_independent_sets(self, gains, Q):
        rc = received_constellation(NormalizedGains(g=gains), Q, 1.0)
        assert rc.gamma is GammaStatus.HOLDS
        assert rc.points.size == (2 * Q + 1) ** len(gains)

    @pytest.mark.parametrize("A", [math.nan, math.inf, 0.0])
    def test_bad_amplitude_rejected(self, A):
        with pytest.raises(ParameterError, match="A must be"):
            received_constellation(G_S2, 2, A)

    def test_float_overflow_rejected(self):
        with pytest.raises(ParameterError, match="overflow"), np.errstate(over="ignore"):
            received_constellation(NormalizedGains(g=(1e308, 1.0)), 2, 1.0)

    def test_cap_reports_required_count(self):
        # 217^3 = 10,218,313 tuples, past ENUMERATION_CAP = 10^7
        with pytest.raises(SizeCapError, match="10218313 points, cap is 10000000"):
            received_constellation(NormalizedGains(g=(S2, S3, 1.0)), 108, 1.0)

    def test_matches_brute_force_enumeration(self):
        rc = received_constellation(G_S2, 2, 3.0)
        oracle = brute_force_points((S2, 1.0), 2, 3.0)
        assert np.allclose(rc.points, oracle, rtol=1e-12)

    def test_index_digits_rebuild_every_point(self):
        gains = (S2, S3, 1.0)
        rc = received_constellation(NormalizedGains(g=gains), 3, 2.5)
        digits = mixed_radix_digits(rc.index, 3, 3)
        assert digits.shape == (rc.points.size, 3)
        rebuilt = 2.5 * sum(gk * digits[:, k] for k, gk in enumerate(gains))
        assert np.array_equal(rebuilt, rc.points)

    def test_index_digits_rebuild_every_exact_point(self):
        gains = (Fraction(2, 7), Fraction(-5, 3), 1)
        rc = received_constellation(NormalizedGains(g=gains), 2, 1.5)
        digits = mixed_radix_digits(rc.index, 3, 2)
        rebuilt = [1.5 * float(sum(gk * int(d) for gk, d in zip(gains, row))) for row in digits]
        assert rebuilt == rc.points.tolist()

    def test_mixed_radix_digits_order(self):
        digits = mixed_radix_digits(np.arange(27), 3, 1)
        assert digits.tolist() == [list(v) for v in product(range(-1, 2), repeat=3)]
        assert mixed_radix_digits(13, 3, 1).tolist() == [0, 0, 0]

    @settings(max_examples=100, deadline=None)
    @given(K=st.integers(1, 5), Q=st.integers(0, 4), data=st.data())
    def test_mixed_radix_index_inverts_digits(self, K, Q, data):
        M = (2 * Q + 1) ** K
        index = np.array(data.draw(st.lists(st.integers(0, M - 1), min_size=1, max_size=50)))
        digits = mixed_radix_digits(index, K, Q)
        assert np.array_equal(mixed_radix_index(digits, K, Q), index)
        assert np.array_equal(mixed_radix_index(mixed_radix_digits(np.arange(M), K, Q), K, Q),
                              np.arange(M))

    def test_mixed_radix_index_refuses_to_wrap(self):
        # (2Q+1)^2 is just below 2^63 at the first Q and just above at the
        # second, whose largest index would wrap around in int64
        Q = 1518500249
        assert mixed_radix_index([[Q, Q]], 2, Q)[0] == (2 * Q + 1) ** 2 - 1
        with pytest.raises(SizeCapError):
            mixed_radix_index([[0, 0]], 2, Q + 1)
        with pytest.raises(SizeCapError):
            mixed_radix_index(np.zeros((1, 12), dtype=np.int64), 12, 77)

    @staticmethod
    def digit_table_sums(coefs, Q, dtype):
        """The sums as built from the full (M, K) digit table."""
        K = len(coefs)
        digits = mixed_radix_digits(np.arange((2 * Q + 1) ** K), K, Q)
        vals = np.zeros(digits.shape[0], dtype=dtype)
        for k, c in enumerate(coefs):
            vals += c * digits[:, k].astype(dtype, copy=False)
        return vals

    @settings(max_examples=150, deadline=None)
    @given(
        coefs=st.lists(st.floats(-1e6, 1e6, allow_subnormal=False), min_size=1, max_size=4),
        Q=st.integers(0, 4),
    )
    def test_tuple_sums_match_digit_table_bit_for_bit(self, coefs, Q):
        got = tuple_sums(coefs, Q)
        want = self.digit_table_sums(coefs, Q, float)
        assert got.dtype == want.dtype
        assert np.array_equal(got.view(np.int64), want.view(np.int64))  # signed zeros too

    @settings(max_examples=60, deadline=None)
    @given(
        coefs=st.lists(st.integers(-(10**30), 10**30), min_size=1, max_size=3),
        Q=st.integers(0, 3),
    )
    def test_tuple_sums_match_digit_table_exactly(self, coefs, Q):
        got = tuple_sums(coefs, Q, object)
        assert got.tolist() == self.digit_table_sums(coefs, Q, object).tolist()
        assert all(type(v) is int for v in got.tolist())
        small = [c % 1000 - 500 for c in coefs]
        assert np.array_equal(tuple_sums(small, Q, np.int64),
                              self.digit_table_sums(small, Q, np.int64))

    @pytest.mark.parametrize("gains", [(0.5, 1.0), (Fraction(1, 2), 1), (0.25, 0.5, 1.0)])
    def test_collided_points_keep_their_first_tuple(self, gains):
        # tied sums fall back to the stable order: each point keeps the
        # first tuple, in mixed-radix order, that lands on it
        Q = 2
        rc = received_constellation(NormalizedGains(g=gains), Q, 1.0)
        assert rc.gamma is GammaStatus.VIOLATED
        tuples = mixed_radix_digits(np.arange((2 * Q + 1) ** len(gains)), len(gains), Q)
        sums = [sum(Fraction(g) * int(v) for g, v in zip(gains, row)) for row in tuples]
        first = {}
        for i, s in enumerate(sums):
            first.setdefault(s, i)
        assert rc.index.tolist() == [first[s] for s in sorted(first)]

    @settings(max_examples=150, deadline=None)
    @example(
        gains=(Fraction(7, 10**12 - 11), Fraction(-3, 10**12 - 39), Fraction(1)), Q=2, A=1.0
    )
    @given(
        gains=st.lists(
            st.fractions(max_denominator=10**12) | st.fractions(-2, 2, max_denominator=4),
            min_size=1,
            max_size=2,
        ).map(lambda head: tuple(head) + (Fraction(1),)),
        Q=st.integers(0, 3),
        A=st.floats(0.01, 100.0),
    )
    def test_exact_builder_matches_fraction_oracle(self, gains, Q, A):
        rc = received_constellation(NormalizedGains(g=gains), Q, A)
        points, collision, d_min = brute_force_exact(gains, Q, A)
        assert rc.points.tolist() == points
        assert rc.gamma is (GammaStatus.VIOLATED if collision else GammaStatus.HOLDS)
        assert rc.d_min == d_min

    def test_high_power_k4_builds_and_decodes(self):
        # K=4, eps=0.01 at P=1e10: more than a million tuples
        gains = sample_gains(0, 4)
        g = normalize_gains(gains)
        Q, A = select_params(effective_power(gains, 1e10), 4, 0.01)
        amp = A * abs(g.scale)
        rc = received_constellation(g, Q, amp)
        assert (2 * Q + 1) ** 4 > 1_000_000
        assert rc.gamma is GammaStatus.HOLDS
        v = np.random.default_rng(0).integers(-Q, Q + 1, size=(5, 4))
        y = amp * sum(gk * v[:, k] for k, gk in enumerate(g.as_floats()))
        assert np.array_equal(hard_decode(y, rc), v)


class TestMinDistance:
    def test_adjacent_gap(self):
        rc = ReceivedConstellation(
            K=1,
            Q=1,
            A=1.0,
            points=np.array([0.0, 1.0, 3.0]),
            index=np.array([0, 1, 2]),
            gamma=GammaStatus.HOLDS,
            d_min=1.0,
        )
        assert min_distance(rc) == 1.0

    def test_sqrt2_q2(self):
        rc = received_constellation(G_S2, 2, 1.0)
        oracle = brute_force_min_gap(rc.points)
        assert min_distance(rc) == oracle  # bitwise
        assert min_distance(rc) == pytest.approx(3 - 2 * S2, rel=1e-12)

    def test_scales_with_amplitude(self):
        base = received_constellation(G_S2, 2, 1.0)
        scaled = received_constellation(G_S2, 2, 10.0)
        assert scaled.d_min == pytest.approx(10 * base.d_min, rel=1e-12)

    def test_needs_two_points(self):
        rc = received_constellation(G_S2, 0, 1.0)
        with pytest.raises(ParameterError):
            min_distance(rc)

    def test_bitwise_oracle_agreement_seeded(self):
        for seed in range(10):
            gains = normalize_gains(sample_gains(seed, 2))
            rc = received_constellation(gains, 4, 1.0)
            assert min_distance(rc) == brute_force_min_gap(rc.points)

    def test_scaling_law_seeded(self):
        for seed, c in [(0, 2.0), (1, 0.25), (2, 7.5)]:
            gains = normalize_gains(sample_gains(seed, 3))
            a = received_constellation(gains, 2, 1.0)
            b = received_constellation(gains, 2, c)
            assert b.d_min == pytest.approx(c * a.d_min, rel=1e-12)


class TestPeUpperBound:
    def test_zero_distance(self):
        assert pe_upper_bound(0.0) == (0.5, 1.0)

    def test_d4(self):
        tail, exp_b = pe_upper_bound(4.0)
        # erfc oracle
        assert tail == pytest.approx(0.5 * math.erfc(2 / math.sqrt(2)), rel=1e-14)
        assert tail == pytest.approx(0.02275013194817922, rel=1e-12)
        assert exp_b == pytest.approx(math.exp(-2), rel=1e-14)

    def test_d10(self):
        tail, exp_b = pe_upper_bound(10.0)
        assert tail == pytest.approx(2.866515718791946e-07, rel=1e-12)
        assert exp_b == pytest.approx(3.726653172078671e-06, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            pe_upper_bound(-0.1)

    def test_tail_never_exceeds_exp_bound(self):
        for d in np.logspace(-3, 2, 60):
            tail, exp_b = pe_upper_bound(float(d))
            assert tail <= exp_b
