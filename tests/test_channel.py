import math
import re
from fractions import Fraction

import numpy as np
import pytest

from secmac import (
    ChannelGains,
    NormalizedGains,
    ParameterError,
    effective_power,
    normalize_gains,
    sample_gains,
    transmit,
)
from secmac.channel import TAIL_SWITCH, normalize_ratios, tail_normals
from secmac.rng import stream

# Tails for the conditioned sampler: plain draws, rejection, both sides of
# the switch to Robert's proposal, and far out (p_far underflows near 38.5).
TAILS = (0.0, 0.3, TAIL_SWITCH - 1e-9, TAIL_SWITCH + 1e-9, 3.0, 10.0, 37.0)
TAIL_IDS = ["0", "0.3", "below-switch", "above-switch", "3", "10", "37"]


class TestNormalizeGains:
    def test_ratio_of_ratios(self):
        g = normalize_gains(ChannelGains(h=(3, 2), h_e=(1.5, 4)))
        assert g.g == (4.0, 1.0)
        assert g.scale == 0.5

    def test_identity_when_h_equals_he(self):
        g = normalize_gains(ChannelGains(h=(0.7, 1.3, 2.0), h_e=(0.7, 1.3, 2.0)))
        assert g.g == (1.0, 1.0, 1.0)
        assert g.scale == 1.0

    def test_last_ratio_already_one(self):
        s2 = math.sqrt(2)
        g = normalize_gains(ChannelGains(h=(s2, 1), h_e=(1, 1)))
        assert g.g == (s2, 1.0)
        assert g.scale == 1.0

    def test_zero_eavesdropper_gain_names_index(self):
        with pytest.raises(ParameterError, match=r"h_e\[1\]"):
            ChannelGains(h=(1, 1), h_e=(1, 0))

    @pytest.mark.parametrize(
        "h,h_e,why",
        [((1.0, 2.0), (1.0,), "gain vectors differ in length: 2 vs 1"),
         ((), (), "at least one user required")],
        ids=["length-mismatch", "no-users"],
    )
    def test_malformed_gain_vectors_rejected(self, h, h_e, why):
        with pytest.raises(ParameterError, match=re.escape(why)):
            ChannelGains(h=h, h_e=h_e)

    def test_empty_normalized_gains_rejected(self):
        with pytest.raises(ParameterError, match="empty gain vector"):
            NormalizedGains(g=())

    def test_zero_last_main_gain(self):
        with pytest.raises(ParameterError, match=r"h\[1\]"):
            normalize_gains(ChannelGains(h=(1, 0), h_e=(1, 1)))

    @pytest.mark.parametrize(
        "g,scale",
        [((math.nan, 1.0), 1.0), ((-math.inf, 1.0), 1.0), ((0.5, 1.0), math.inf)],
        ids=["nan", "-inf", "inf-scale"],
    )
    def test_non_finite_rejected(self, g, scale):
        with pytest.raises(ParameterError, match="finite"):
            NormalizedGains(g=g, scale=scale)

    def test_ratio_list_divides_by_its_last_entry(self):
        exact = normalize_ratios([Fraction(1, 3), Fraction(2)])
        assert exact.exact and exact.g == (Fraction(1, 6), 1) and exact.scale == 2.0
        floats = normalize_ratios([Fraction(1, 3), 2.0])  # one float makes the list float
        assert not floats.exact and floats.g == (float(Fraction(1, 3)) / 2.0, 1.0)

    @pytest.mark.parametrize(
        "ratios",
        [[1.0, 0.0], [Fraction(1), Fraction(0)], [0.0], [Fraction(10**400), 1.0]],
        ids=["float-zero", "exact-zero", "one-zero", "past-range"],
    )
    def test_ratio_list_zero_last_or_past_range_refused(self, ratios):
        with pytest.raises(ParameterError, match="float64 range or the last is zero"):
            normalize_ratios(ratios)

    def test_non_finite_main_gain_rejected(self):
        with pytest.raises(ParameterError, match="finite"):
            normalize_gains(ChannelGains(h=(math.nan, 1), h_e=(1, 1)))

    def test_reconstruction(self):
        # multiplying back by scale and h_e recovers h
        for seed in range(20):
            gains = sample_gains(seed, 3)
            g = normalize_gains(gains)
            rebuilt = [gk * g.scale * he for gk, he in zip(g.g, gains.h_e)]
            assert np.allclose(rebuilt, gains.h, rtol=1e-12, atol=0)


class TestSampleGains:
    def test_deterministic(self):
        assert sample_gains(7, 2) == sample_gains(7, 2)

    def test_seeds_differ(self):
        assert sample_gains(7, 2) != sample_gains(8, 2)

    def test_range(self):
        g = sample_gains(3, 4)
        for v in g.h + g.h_e:
            assert 0.5 <= v <= 2.0

    def test_k_must_be_at_least_two(self):
        with pytest.raises(ParameterError):
            sample_gains(7, 1)


class TestEffectivePower:
    def test_examples(self):
        assert effective_power(ChannelGains(h=(1, 1), h_e=(1.5, 4)), 10) == 22.5
        assert effective_power(ChannelGains(h=(1, 1), h_e=(1, 1)), 100) == 100
        assert effective_power(ChannelGains(h=(1, 1), h_e=(0.1, 10)), 1) == pytest.approx(0.01)

    def test_nonpositive_power(self):
        gains = ChannelGains(h=(1, 1), h_e=(1, 1))
        for bad in (0.0, -1.0):
            with pytest.raises(ParameterError):
                effective_power(gains, bad)

    def test_non_finite_power(self):
        gains = ChannelGains(h=(1, 1), h_e=(1, 1))
        for bad in (math.nan, math.inf):
            with pytest.raises(ParameterError):
                effective_power(gains, bad)

    def test_monotone(self):
        gains = ChannelGains(h=(1, 1), h_e=(0.8, 1.7))
        powers = [effective_power(gains, p) for p in (1, 2, 5, 10)]
        assert powers == sorted(powers)
        # raising any |h_e[k]| cannot decrease the result
        bumped = ChannelGains(h=(1, 1), h_e=(0.9, 1.7))
        assert effective_power(bumped, 10) >= effective_power(gains, 10)


class TestTransmit:
    def test_zero_input_zero_noise(self):
        assert np.all(transmit(np.zeros(5), 0.0, seed=1) == 0)

    def test_deterministic(self):
        y = np.ones(100)
        assert np.array_equal(transmit(y, 1.0, seed=42), transmit(y, 1.0, seed=42))

    def test_noise_streams_independent(self):
        # the eavesdropper's observation is the same call with a seed of its own
        y = transmit(np.zeros(1000), 1.0, seed=0)
        z = transmit(np.zeros(1000), 1.0, seed=1)
        assert not np.array_equal(y, z)
        assert abs(np.corrcoef(y, z)[0, 1]) < 0.1

    def test_noise_is_the_main_stream(self):
        # y + sqrt(variance) * the (seed, "transmit/main") normals, in y's shape
        for y in (np.arange(6.0), np.arange(6.0).reshape(2, 3)):
            want = y + 2.0 * stream(5, "transmit/main").standard_normal(y.shape)
            assert np.array_equal(transmit(y, 4.0, seed=5), want)

    def test_noiseless_returns_the_values_without_a_stream(self, monkeypatch):
        def no_stream(*args):
            raise AssertionError("a noise stream was derived")

        monkeypatch.setattr("secmac.channel.stream", no_stream)
        y = np.array([3.0, -1.5, 0.25])
        assert np.array_equal(transmit(y, 0.0, seed=1), [3.0, -1.5, 0.25])

    @pytest.mark.parametrize("variance", [-1.0, math.nan, math.inf])
    def test_bad_variance_rejected(self, variance):
        with pytest.raises(ParameterError, match="variance"):
            transmit(np.zeros(3), variance, seed=0)

    def test_noiseless_linearity(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=50)
        y1 = transmit(2.5 * y, 0.0, seed=0)
        y2 = transmit(y, 0.0, seed=0)
        assert np.allclose(y1, 2.5 * y2, rtol=1e-12, atol=1e-12)


class TestTailNormals:
    @pytest.mark.parametrize("t", TAILS, ids=TAIL_IDS)
    def test_conditioned_law(self, t):
        # every draw beyond t, E[|Z| | |Z| > t] = phi(t) / Phi_bar(t) within
        # 5 standard errors, and as many signs of each kind within 5 of theirs
        n = 100_000
        z = tail_normals(stream(3, "tail"), n, t)
        assert z.shape == (n,) and np.all(np.abs(z) > t)
        mills = math.exp(-t * t / 2) / math.sqrt(2 * math.pi) / (0.5 * math.erfc(t / math.sqrt(2)))
        a = np.abs(z)
        assert abs(a.mean() - mills) <= 5 * a.std() / math.sqrt(n)
        assert abs(np.count_nonzero(z > 0) - n / 2) <= 5 * math.sqrt(n) / 2

    @pytest.mark.parametrize("t", TAILS, ids=TAIL_IDS)
    def test_reruns_are_bit_identical(self, t):
        draws = [tail_normals(stream(8, "tail"), 5000, t) for _ in range(2)]
        assert np.array_equal(*draws)
        y = np.linspace(-3.0, 3.0, 5000)
        assert np.array_equal(transmit(y, 2.0, 8, t), transmit(y, 2.0, 8, t))

    def test_zero_tail_is_the_plain_draw(self):
        want = stream(4, "transmit/main").standard_normal(300)
        assert np.array_equal(tail_normals(stream(4, "transmit/main"), 300, 0.0), want)
        assert np.array_equal(transmit(np.zeros((3, 100)), 1.0, 4, 0.0), want.reshape(3, 100))

    def test_no_draws(self):
        assert tail_normals(stream(1, "tail"), 0, 2.0).shape == (0,)

    @pytest.mark.parametrize("tail", [-0.5, math.nan, math.inf, 38.6, 1e9])
    def test_bad_tail_rejected(self, tail):
        # past P(Z > tail) = 0 the proposal t + E/lam rounds to t: at t = 1e9
        # every draw equalled t
        with pytest.raises(ParameterError, match=r"noise tail must be >= 0 with P\(Z > tail\) > 0"):
            transmit(np.zeros(3), 1.0, seed=0, tail=tail)
