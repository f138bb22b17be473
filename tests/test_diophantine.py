import math
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secmac import diophantine
from secmac import (
    ParameterError,
    SizeCapError,
    kg_profile,
    min_linear_form,
    normalize_gains,
    sample_gains,
)
from secmac.constellation import tuple_sums

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
    """The search one q_j at a time, as min_linear_form did before blocks,
    as a hex string; a row holding an overflowed (NaN) value is skipped."""
    g = [float(x) for x in g]
    best = math.inf
    for j in range(len(g)):
        inner = tuple_sums(g[j + 1 :], N)
        for qj in range(1, N + 1):
            s = qj * g[j] + inner
            vals = np.abs(s - np.rint(s))
            if not np.isnan(vals).any():
                best = min(best, float(vals.min()))
    return best.hex()


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
        assert min_linear_form([S2], 4) == pytest.approx(3 - 2 * S2, rel=1e-12)

    def test_exact_rational_zero(self):
        assert min_linear_form([0.5], 2) == 0.0

    def test_sqrt2_sqrt3_n2(self):
        assert min_linear_form([S2, S3], 2) == pytest.approx(abs(2 + S2 - 2 * S3), rel=1e-12)

    def test_returns_a_float(self):
        assert type(min_linear_form([S2], 4)) is float

    def test_matches_brute_oracle(self):
        for seed in range(8):
            g = list(normalize_gains(sample_gains(seed, 3)).g[:-1])
            assert min_linear_form(g, 3) == pytest.approx(brute_min_form(g, 3), abs=1e-15)

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
        # the loop reference is slow, so N stays small there
        N = min(N, 12) if len(g) == 3 else N
        want = loop_min_form(g, N)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(diophantine, "_BLOCK_CELLS", cells)
            assert min_linear_form(g, N).hex() == want

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("g", [[1e308], [1e308, 0.3], [0.3, 1e308], [1e308, 1e308]])
    @pytest.mark.parametrize("cells", [1, 4, diophantine._BLOCK_CELLS])
    def test_overflowed_rows_skipped_as_before(self, g, cells):
        # rows whose q_j * g_j overflows hold NaN values; they never win
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(diophantine, "_BLOCK_CELLS", cells)
            assert min_linear_form(g, 3).hex() == loop_min_form(g, 3)

    def test_nonincreasing_in_n(self):
        for seed in range(6):
            g = list(normalize_gains(sample_gains(seed, 2)).g[:-1])
            vals = [min_linear_form(g, N) for N in (1, 2, 4, 8, 16, 32)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_continued_fraction_residuals(self):
        conv = sqrt2_convergents(5)  # denominators 1, 2, 5, 12, 29
        for p, q in conv:
            assert min_linear_form([S2], q) == abs(p - q * S2)  # bitwise

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
