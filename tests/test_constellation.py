import math
import tracemalloc
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
    SimConfig,
    SizeCapError,
    effective_power,
    hard_decode,
    pe_upper_bound,
    received_constellation,
    sample_gains,
    normalize_gains,
    run_symbol_sweep,
    select_params,
)
from secmac import constellation
from secmac.cli import main
from secmac.constellation import (
    _packed_order,
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

    def test_zero_gap_at_a_normal_amplitude_is_suspect(self):
        # two adjacent float sums round to one point once scaled by A
        g = NormalizedGains(g=(0.9999999999999997, 1.0))
        rc = received_constellation(g, 2, 3.0532379634439946)
        assert rc.gamma is GammaStatus.SUSPECT and rc.d_min == 0.0 and rc.points.size == 25

    @pytest.mark.parametrize("gains", [(1.0000001, 1.0), (Fraction(1, 7), 1)])
    def test_gap_underflow_is_refused(self, gains):
        # distinct sums whose smallest gap times A lies below the smallest float
        with pytest.raises(ParameterError, match="gap underflows float64 at A = 5e-324"):
            received_constellation(NormalizedGains(g=gains), 2, 5e-324)

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

    @pytest.mark.parametrize("digits", [
        np.array([[0.7, -0.3]]),  # a float would truncate to (0, 0)
        np.array([[-1, 2]]),  # would take the index of (0, -1)
        np.array([[2**64 - 1, 0]], dtype=np.uint64),  # would wrap to -1
        np.array([[-2**63, 0]], dtype=np.int64),
        np.array([[2**63 - 1, 0]], dtype=np.int64),  # its shift by Q wraps
    ], ids=["float", "past-q", "uint64-max", "int64-min", "int64-max"])
    def test_mixed_radix_index_refuses_digits_that_would_alias(self, digits):
        with pytest.raises(ParameterError):
            mixed_radix_index(digits, 2, 1)

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


def argsort_build(g, Q, A):
    """The builder's former body, the oracle of the packed-key sort:
    (points, index, gamma, d_min) from an argsort, redone stable on ties."""
    if g.exact:
        ratios = [Fraction(x) for x in g.g]
        D = math.lcm(*(r.denominator for r in ratios))
        coefs = [int(r * D) for r in ratios]
        wide = max(D, g.K * max(Q, 1) * max(abs(c) for c in coefs)) >= 2**53
        sums = tuple_sums(coefs, Q, object if wide else np.int64)
    else:
        D = 1
        sums = tuple_sums(g.as_floats(), Q)
    order = np.argsort(sums)
    sv = sums[order]
    keep = np.concatenate(([True], sv[1:] != sv[:-1]))
    if not keep.all():
        order = np.argsort(sums, kind="stable")
        sv = sums[order]
    points = A * np.asarray(sv[keep] / D, dtype=float)
    gamma = GammaStatus.HOLDS
    if not keep.all():
        gamma, d_min = GammaStatus.VIOLATED, 0.0
    elif sums.size < 2:
        d_min = math.inf
    elif g.exact:
        d_min = float(A * (np.diff(sv).min() / D))
    else:
        d_min = float(np.diff(points).min())
        if d_min < 1e-9 * A:
            gamma = GammaStatus.SUSPECT
    return points, order[keep], gamma, d_min


def float_bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


NEAR_TIE = (1 - 2**-50, 1.0)  # sums 2, 4 and 6 ulps below 3 share one packed-key bucket
FLOAT_GAIN = st.floats(-4, 4, allow_subnormal=False) | st.sampled_from(
    [0.5, 0.25, -0.5, 0.0, 1 - 2**-50]  # exact ties, a zero gain and a near-tie
)
EXACT_GAIN = st.fractions(-2, 2, max_denominator=6)
MAX_Q = {2: 12, 3: 5, 4: 3}


@st.composite
def small_builds(draw):
    """(gains, Q, A) with K = 2..4 and at most 2,401 tuples."""
    K = draw(st.integers(2, 4))
    gain, last = draw(st.sampled_from([(FLOAT_GAIN, 1.0), (FLOAT_GAIN, 1.0), (EXACT_GAIN, 1)]))
    gains = tuple(draw(st.lists(gain, min_size=K - 1, max_size=K - 1))) + (last,)
    return gains, draw(st.integers(0, MAX_Q[K])), draw(st.floats(0.01, 100.0))


class TestPackedKeyOrder:
    """Every float64 build, float or exact below 2^53, sorts packed (value,
    index) int64 keys, and a build of Python-int sums takes one stable
    argsort; each must return exactly what the former argsort body, with
    its int64 exact sums, returned."""

    @settings(max_examples=300, deadline=None)
    @example(drawn=(NEAR_TIE, 4, 1.0))  # packed order misorders: repaired, SUSPECT
    @example(drawn=(NEAR_TIE, 8, 1.0))  # rounding adds exact ties: VIOLATED
    @example(drawn=((0.5, 0.25, 1.0), 2, 1.0))  # exact float ties: VIOLATED
    @example(drawn=((Fraction(1, 2), Fraction(1, 4), 1), 2, 1.0))  # exact ties: VIOLATED
    @example(drawn=((Fraction(2**52 - 1), 1), 1, 1.0))  # 2(2^52 - 1) < 2^53: float64 sums
    @example(drawn=((Fraction(2**50 + 4), Fraction(2**50 + 3), 1), 1, 1.0))  # exact: repaired
    @example(drawn=((Fraction(2**52), 1), 1, 1.0))  # 2 * 2^52 = 2^53: Python-int sums
    @example(drawn=((-1.4142135623730951, 1.0), 3, 2.0))
    @example(drawn=((2.5, -0.75, 1.0), 0, 3.0))  # Q = 0: one point
    @given(drawn=small_builds())
    def test_matches_argsort_body_bitwise(self, drawn):
        gains, Q, A = drawn
        g = NormalizedGains(g=gains)
        rc = received_constellation(g, Q, A)
        points, index, gamma, d_min = argsort_build(g, Q, A)
        assert np.array_equal(float_bits(rc.points), float_bits(points))
        assert rc.index.dtype == index.dtype and np.array_equal(rc.index, index)
        assert rc.gamma is gamma
        assert float_bits(rc.d_min) == float_bits(d_min)

    @pytest.fixture
    def argsort_calls(self, monkeypatch):
        """(kind, copy of the array) of every np.argsort call made while the
        test runs."""
        calls, argsort = [], np.argsort

        def spy(a, *args, **kwargs):
            calls.append((kwargs.get("kind"), np.array(a)))
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", spy)
        return calls

    def test_near_tie_takes_the_stable_fallback(self, argsort_calls):
        rc = received_constellation(NormalizedGains(g=NEAR_TIE), 4, 1.0)
        [(kind, sorted_array)] = argsort_calls
        assert kind == "stable"
        # the repair re-sorts the gathered sums, not those in mixed-radix order
        sums = tuple_sums(NEAR_TIE, 4)
        assert np.array_equal(float_bits(sorted_array), float_bits(sums[_packed_order(sums)]))
        assert not np.array_equal(sorted_array, sums)
        assert rc.gamma is GammaStatus.SUSPECT and rc.points.size == 81
        assert (np.diff(rc.points) > 0).all()

    def test_exact_ties_take_the_packed_order(self, argsort_calls, monkeypatch):
        packed = []

        def spy(sums):
            packed.append(sums.dtype)
            return _packed_order(sums)

        monkeypatch.setattr(constellation, "_packed_order", spy)
        g = NormalizedGains(g=(Fraction(1, 2), Fraction(1, 4), 1))
        rc = received_constellation(g, 2, 1.0)
        assert packed == [np.float64] and argsort_calls == []
        assert rc.gamma is GammaStatus.VIOLATED and rc.points.size < 5**3
        # sums past 2^53 are Python ints: one stable argsort, no packed key
        received_constellation(NormalizedGains(g=WIDE_EXACT), 2, 1.0)
        assert packed == [np.float64] and [kind for kind, _ in argsort_calls] == ["stable"]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_generic_gains_take_the_packed_order(self, argsort_calls, seed):
        # K=3, Q=36 (M = 389,017) is the benchmark's heaviest float build
        rc = received_constellation(normalize_gains(sample_gains(seed, 3)), 36, 1.0)
        assert argsort_calls == []
        assert rc.gamma is GammaStatus.HOLDS and rc.points.size == 73**3


WIDE_EXACT = (Fraction(7, 10**12 - 11), Fraction(-3, 10**12 - 39), Fraction(1))  # D >= 2^53


class TestValuesOnlyBuild:
    """``index=False`` sorts the sums by value alone and drops the tuple
    index; points, gamma and d_min must be those of the index build."""

    @settings(max_examples=300, deadline=None)
    @example(drawn=(NEAR_TIE, 4, 1.0))  # the packed order needs its repair: SUSPECT
    @example(drawn=(NEAR_TIE, 8, 1.0))  # rounding adds exact ties: VIOLATED
    @example(drawn=((0.5, 0.25, 1.0), 2, 1.0))  # exact float ties: VIOLATED
    @example(drawn=((Fraction(1, 2), Fraction(1, 4), 1), 2, 1.0))  # exact ties: VIOLATED
    @example(drawn=(WIDE_EXACT, 2, 1.0))  # Python-int sums
    @example(drawn=((Fraction(2**52 - 1), 1), 1, 1.0))  # 2(2^52 - 1) < 2^53: float64 sums
    @example(drawn=((Fraction(2**52), 1), 1, 1.0))  # 2 * 2^52 = 2^53: Python-int sums
    @example(drawn=((2.5, -0.75, 1.0), 0, 3.0))  # Q = 0: one point
    @given(drawn=small_builds())
    def test_matches_index_build_bitwise(self, drawn):
        gains, Q, A = drawn
        g = NormalizedGains(g=gains)
        values = received_constellation(g, Q, A, index=False)
        indexed = received_constellation(g, Q, A)
        assert values.index is None and indexed.index is not None
        assert values.points.dtype == indexed.points.dtype == np.float64
        assert np.array_equal(float_bits(values.points), float_bits(indexed.points))
        assert values.gamma is indexed.gamma
        assert float_bits(values.d_min) == float_bits(indexed.d_min)

    @pytest.fixture
    def sorts(self, monkeypatch):
        """Names of the index sorts (``np.argsort``, ``_packed_order``) called
        while the test runs."""
        calls = []

        def spy(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np, "argsort", spy("argsort", np.argsort))
        monkeypatch.setattr(
            constellation, "_packed_order", spy("_packed_order", constellation._packed_order)
        )
        return calls

    @pytest.mark.parametrize(
        "gains",
        [
            "1.41421356237,1.7320508,1", "1/7,1", "1/2,1", "7/999999999989,-3/999999999961,1",
            # every token a/b: the exact build
            "1/7,1/1", "1/2,1/1", "7/999999999989,-3/999999999961,1/1",
        ],
    )
    def test_dmin_sorts_no_index(self, sorts, capsys, gains):
        assert main(["dmin", "--gains", gains, "--q", "2", "--a", "1"]) == 0
        assert "d_min = " in capsys.readouterr().out
        assert sorts == []

    def test_sweep_sorts_no_index(self, sorts):
        cfg = SimConfig(K=2, epsilon=0.5, P_grid=(1e2, 1e4), h=(S2, 1.0), h_e=(1.0, 1.0), trials=100)
        assert len(run_symbol_sweep(cfg).rows) == 2
        assert sorts == []

    def test_index_build_still_sorts_its_keys(self, sorts):
        # the spy's control: the decoding build orders packed keys of float64
        # sums, float or exact, and argsorts Python-int sums
        received_constellation(G_S2, 2, 1.0)
        received_constellation(NormalizedGains(g=(Fraction(1, 7), 1)), 2, 1.0)
        received_constellation(NormalizedGains(g=WIDE_EXACT), 2, 1.0)
        assert sorts == ["_packed_order", "_packed_order", "argsort"]

    @pytest.mark.parametrize("index,peak_bytes,kept_bytes", [(False, 16, 8), (True, 24, 16)])
    def test_bytes_per_tuple(self, index, peak_bytes, kept_bytes):
        # K=3, Q=36 (M = 389,017), the benchmark's heaviest float build: the
        # values-only build holds the sums and their gaps at its peak and keeps
        # the points; the index build adds the tuple index to both
        g = normalize_gains(sample_gains(0, 3))
        M, slack = 73**3, 2**16  # slack: numpy and tracemalloc bookkeeping, 0.17 B/tuple
        received_constellation(g, 36, 1.0, index=index)  # first-call allocations
        tracemalloc.start()
        try:
            rc = received_constellation(g, 36, 1.0, index=index)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc.gamma is GammaStatus.HOLDS and rc.points.size == M
        assert peak <= peak_bytes * M + slack
        assert kept <= kept_bytes * M + slack


class TestMinDistance:
    def test_sqrt2_q2(self):
        rc = received_constellation(G_S2, 2, 1.0)
        oracle = brute_force_min_gap(rc.points)
        assert rc.d_min == oracle  # bitwise
        assert rc.d_min == pytest.approx(3 - 2 * S2, rel=1e-12)

    def test_scales_with_amplitude(self):
        base = received_constellation(G_S2, 2, 1.0)
        scaled = received_constellation(G_S2, 2, 10.0)
        assert scaled.d_min == pytest.approx(10 * base.d_min, rel=1e-12)

    def test_bitwise_oracle_agreement_seeded(self):
        for seed in range(10):
            gains = normalize_gains(sample_gains(seed, 2))
            rc = received_constellation(gains, 4, 1.0)
            assert rc.d_min == brute_force_min_gap(rc.points)

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

    def test_nan_rejected(self):
        # a NaN distance gave (nan, nan)
        with pytest.raises(ParameterError, match="d_min must be >= 0, got nan"):
            pe_upper_bound(math.nan)

    def test_tail_is_the_old_quotient_bit_for_bit(self):
        # Phi_bar(d/2) is taken at (d/2)/sqrt(2); d/(2 sqrt(2)) rounds the same
        for d in np.concatenate([np.logspace(-300, 300, 2001), [5e-324, 1.7e308, math.inf]]):
            d = float(d)
            assert pe_upper_bound(d)[0] == 0.5 * math.erfc(d / (2.0 * math.sqrt(2.0)))

    def test_tail_never_exceeds_exp_bound(self):
        for d in np.logspace(-3, 2, 60):
            tail, exp_b = pe_upper_bound(float(d))
            assert tail <= exp_b
