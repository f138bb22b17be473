import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secmac import diophantine
from secmac import (
    ParameterError,
    SizeCapError,
    find_integer_relation,
    kg_profile,
    min_linear_form,
    normalize_gains,
    sample_gains,
)
from secmac.constellation import mixed_radix_digits, tuple_sums

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


def loop_min_form(g, N):
    """The search one q_j at a time, as min_linear_form did before blocks."""
    g = [float(x) for x in g]
    best_val, best_q, best_s = math.inf, None, 0.0
    for j in range(len(g)):
        tail = g[j + 1 :]
        inner = tuple_sums(tail, N)
        for qj in range(1, N + 1):
            s = qj * g[j] + inner
            vals = np.abs(s - np.rint(s))
            v = float(vals.min())
            if v > best_val:
                continue
            for idx in np.flatnonzero(vals == vals.min()):
                q = (0,) * j + (qj,) + tuple(mixed_radix_digits(idx, len(tail), N).tolist())
                if v < best_val or q < best_q:
                    best_val, best_q, best_s = v, q, float(s[idx])
    return best_val.hex(), int(np.rint(-best_s)), best_q, N


def as_tuple(res):
    return res.value.hex(), res.p, res.q, res.N


TIE_GAINS = (0.5, 0.25, 2.0, 1 / 3, 0.0, -0.5, 1.0)
gain = st.one_of(
    st.sampled_from(TIE_GAINS), st.floats(-4, 4, allow_nan=False, allow_infinity=False)
)


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

    @settings(max_examples=150, deadline=None)
    @given(
        g=st.lists(gain, min_size=1, max_size=3),
        N=st.integers(1, 40),
        cells=st.sampled_from([1, 2, 3, 7, 64, diophantine._BLOCK_CELLS]),
    )
    @example(g=[0.5, 0.25], N=40, cells=5)
    @example(g=[1 / 3], N=40, cells=4)
    @example(g=[2.0, 0.5, 0.25], N=9, cells=100)
    def test_whole_result_matches_loop(self, g, N, cells):
        # small block sizes split the q_j range at arbitrary rows; at m = 3
        # the loop reference walks every tied cell, so N stays small there
        N = min(N, 12) if len(g) == 3 else N
        want = loop_min_form(g, N)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(diophantine, "_BLOCK_CELLS", cells)
            assert as_tuple(min_linear_form(g, N)) == want

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("g", [[1e308], [1e308, 0.3], [0.3, 1e308], [1e308, 1e308]])
    @pytest.mark.parametrize("cells", [1, 4, diophantine._BLOCK_CELLS])
    def test_overflowed_rows_skipped_as_before(self, g, cells):
        # rows whose q_j * g_j overflows hold NaN values; they never win
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(diophantine, "_BLOCK_CELLS", cells)
            assert as_tuple(min_linear_form(g, 3)) == loop_min_form(g, 3)

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

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_non_finite_epsilon_rejected(self, eps):
        with pytest.raises(ParameterError):
            kg_profile([S2], eps, (2, 4))

    def test_overflowing_scale_rejected(self):
        with pytest.raises(ParameterError):
            kg_profile([S2], 1e11, (2, 4))

    def test_one_search_per_rung(self, monkeypatch):
        calls = []
        real = diophantine.min_linear_form
        monkeypatch.setattr(
            diophantine, "min_linear_form", lambda g, N: calls.append(N) or real(g, N)
        )
        kg_profile([S2], 0.5, (2, 4, 12))
        assert calls == [2, 4, 12]

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

