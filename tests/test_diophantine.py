import math
from fractions import Fraction
from itertools import product

import pytest

from secmac import (
    ParameterError,
    SizeCapError,
    find_integer_relation,
    kg_profile,
    min_linear_form,
    normalize_gains,
    psi_series_partial_sum,
    sample_gains,
    suspected_relation,
)

S2 = math.sqrt(2)
S3 = math.sqrt(3)


def brute_min_form(gains, N):
    """Independent exhaustive oracle over the full (non-canonical) grid."""
    best = math.inf
    for q in product(range(-N, N + 1), repeat=len(gains)):
        if all(v == 0 for v in q):
            continue
        s = sum(qk * gk for qk, gk in zip(q, gains))
        best = min(best, abs(s - round(s)))
    return best


def sqrt2_convergents(count):
    """Continued-fraction convergents of sqrt(2): 1/1, 3/2, 7/5, 17/12, ..."""
    # partial quotients: 1, 2, 2, 2, ...
    ps, qs = [1, 3], [1, 2]
    while len(ps) < count:
        ps.append(2 * ps[-1] + ps[-2])
        qs.append(2 * qs[-1] + qs[-2])
    return list(zip(ps, qs))


class TestMinLinearForm:
    def test_sqrt2_n4(self):
        res = min_linear_form([S2], 4)
        assert res.q == (2,)
        assert res.p == -3
        assert res.value == pytest.approx(3 - 2 * S2, rel=1e-12)

    def test_exact_rational_zero(self):
        res = min_linear_form([0.5], 2)
        assert res.value == 0.0
        assert res.q == (2,)
        assert res.p == -1

    def test_sqrt2_sqrt3_n2(self):
        res = min_linear_form([S2, S3], 2)
        assert res.q == (1, -2)
        assert res.p == 2
        assert res.value == pytest.approx(abs(2 + S2 - 2 * S3), rel=1e-12)

    def test_matches_brute_oracle(self):
        for seed in range(8):
            g = list(normalize_gains(sample_gains(seed, 3)).g[:-1])
            assert min_linear_form(g, 3).value == pytest.approx(
                brute_min_form(g, 3), abs=1e-15
            )

    def test_canonical_sign(self):
        for seed in range(8):
            g = list(normalize_gains(sample_gains(seed, 3)).g[:-1])
            q = min_linear_form(g, 4).q
            first_nonzero = next(v for v in q if v != 0)
            assert first_nonzero > 0

    def test_p_is_nearest_integer(self):
        for seed in range(8):
            g = list(normalize_gains(sample_gains(seed, 2)).g[:-1])
            res = min_linear_form(g, 16)
            s = sum(qk * gk for qk, gk in zip(res.q, g))
            assert res.p == round(-s)

    def test_nonincreasing_in_n(self):
        for seed in range(6):
            g = list(normalize_gains(sample_gains(seed, 2)).g[:-1])
            vals = [min_linear_form(g, N).value for N in (1, 2, 4, 8, 16, 32)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_continued_fraction_residuals(self):
        conv = sqrt2_convergents(5)  # denominators 1, 2, 5, 12, 29
        for p, q in conv:
            res = min_linear_form([S2], q)
            assert res.value == abs(p - q * S2)  # bitwise
            assert res.q == (q,)
            assert res.p == -p

    def test_search_cap(self):
        with pytest.raises(SizeCapError):
            min_linear_form([S2, S3, math.pi], 500)

    def test_bad_args(self):
        with pytest.raises(ParameterError):
            min_linear_form([], 4)
        with pytest.raises(ParameterError):
            min_linear_form([S2], 0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ParameterError):
                min_linear_form([S2, bad], 4)


class TestKGProfile:
    def test_sqrt2_profile(self):
        prof = kg_profile([S2], 0.5, (2, 4, 12))
        ns = [r[0] for r in prof.rows]
        ms = [r[1] for r in prof.rows]
        scaled = [r[2] for r in prof.rows]
        assert ns == [2, 4, 12]
        assert ms[0] == pytest.approx(3 - 2 * S2, rel=1e-12)
        assert ms[1] == pytest.approx(3 - 2 * S2, rel=1e-12)
        assert ms[2] == pytest.approx(abs(17 - 12 * S2), rel=1e-12)
        for (N, m, sc) in prof.rows:
            assert sc == pytest.approx(m * N**1.5, rel=1e-12)
        assert prof.c_hat == min(scaled)
        assert prof.c_hat == pytest.approx((3 - 2 * S2) * 2**1.5, rel=1e-12)

    def test_rational_gain_c_hat_zero(self):
        assert kg_profile([0.5], 0.3, (2, 4)).c_hat == 0.0

    def test_m_column_nonincreasing(self):
        prof = kg_profile([S2, S3], 0.5, (2, 4, 8, 16))
        ms = [r[1] for r in prof.rows]
        assert all(a >= b for a, b in zip(ms, ms[1:]))

    def test_badly_approximable_floor_eps0(self):
        # for sqrt(2), |q*sqrt(2) - p| * q >= 1/(2 + 2*sqrt(2)) minus rounding
        prof = kg_profile([S2], 0.0, tuple(range(1, 65)))
        assert prof.c_hat > 1 / (2 + 2 * S2) - 1e-9

    def test_requires_increasing_n(self):
        with pytest.raises(ParameterError):
            kg_profile([S2], 0.5, (4, 4))
        with pytest.raises(ParameterError):
            kg_profile([S2], 0.5, ())


class TestFindIntegerRelation:
    def test_half(self):
        rel = find_integer_relation([Fraction(1, 2)])
        assert rel == (-1, (2,))

    def test_clears_first_denominator(self):
        rel = find_integer_relation([Fraction(3, 4), Fraction(1, 2)])
        assert rel == (-3, (4, 0))

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            find_integer_relation([])

    def test_float_rejected(self):
        with pytest.raises(ParameterError):
            find_integer_relation([0.5])

    def test_residual_exactly_zero(self):
        import random

        rng = random.Random(11)
        for _ in range(25):
            g = [
                Fraction(rng.randint(-40, 40), rng.randint(1, 40))
                for _ in range(rng.randint(1, 4))
            ]
            p, q = find_integer_relation(g)
            assert any(v != 0 for v in q)
            assert p + sum(qk * gk for qk, gk in zip(q, g)) == 0


class TestSuspectedRelation:
    def test_sqrt2_has_none(self):
        # best form value at N=64 is |577 - 408*sqrt(2)| from the convergents,
        # far above tau; the search bound caps q at 64 so the achieved value
        # is |41 - 29*sqrt(2)| ~ 1.2e-2
        assert suspected_relation([S2], 64, 1e-9) is None

    def test_rational_detected(self):
        rel = suspected_relation([0.75], 4, 1e-9)
        assert rel == (-3, (4,))

    def test_perturbation_below_resolution(self):
        assert suspected_relation([S2 + 1e-12], 4, 1e-6) is None

    def test_bad_tau(self):
        with pytest.raises(ParameterError):
            suspected_relation([S2], 4, 0.0)


class TestPsiSeries:
    def test_single_term(self):
        assert psi_series_partial_sum(2, 1.0, 1) == 1.0

    def test_basel_limit(self):
        # sum q^(K-2) psi(q) with K=3, eps=1 is the Basel series
        val = psi_series_partial_sum(3, 1.0, 10**6)
        assert val == pytest.approx(1.644933, abs=1e-5)
        # Euler-Maclaurin oracle: zeta(2) - 1/N + O(1/N^2)
        assert val == pytest.approx(math.pi**2 / 6 - 1e-6, abs=1e-9)

    def test_cauchy_tail(self):
        # doubling q_max adds less than the integral tail bound q_max^-eps / eps
        for q_max in (10, 100, 1000):
            a = psi_series_partial_sum(2, 0.5, q_max)
            b = psi_series_partial_sum(2, 0.5, 2 * q_max)
            assert 0 < b - a < q_max**-0.5 / 0.5

    def test_boundary_epsilon_rejected(self):
        with pytest.raises(ParameterError):
            psi_series_partial_sum(2, 0.0, 10)
        with pytest.raises(ParameterError):
            psi_series_partial_sum(2, 1.0, 0)
