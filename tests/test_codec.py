import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secmac import (
    AmbiguityError,
    ChannelGains,
    NormalizedGains,
    ParameterError,
    build_codebook,
    decode_messages,
    encode,
    hard_decode,
    normalize_gains,
    received_constellation,
    scale_to_channel,
    select_params,
    transmit,
)
from secmac.codec import Codebook, DuplicateStats, nearest_is, point_ranks
from secmac.constellation import mixed_radix_digits, mixed_radix_index
from secmac.rng import stream

S2 = math.sqrt(2)
S3 = math.sqrt(3)


class TestBuildCodebook:
    def test_shape_and_range(self):
        cb = build_codebook(n=1, Q=1, B=3, L=2, seed=1)
        assert cb.table.shape == (3, 2, 1)
        assert np.all(np.abs(cb.table) <= 1)

    def test_deterministic(self):
        a = build_codebook(n=4, Q=2, B=4, L=3, seed=9)
        b = build_codebook(n=4, Q=2, B=4, L=3, seed=9)
        assert np.array_equal(a.table, b.table)

    def test_bad_args(self):
        with pytest.raises(ParameterError):
            build_codebook(n=0, Q=1, B=1, L=1, seed=0)
        with pytest.raises(ParameterError):
            build_codebook(n=1, Q=0, B=1, L=1, seed=0)


class TestEncode:
    def test_l1_ignores_seed(self):
        cb = build_codebook(n=3, Q=1, B=4, L=1, seed=2)
        for w in range(4):
            assert np.array_equal(encode(cb, w, seed=0), encode(cb, w, seed=99))
            assert np.array_equal(encode(cb, w, seed=0), cb.table[w, 0])

    def test_deterministic_per_seed(self):
        cb = build_codebook(n=3, Q=1, B=2, L=4, seed=2)
        assert np.array_equal(encode(cb, 1, seed=5), encode(cb, 1, seed=5))

    def test_member_of_bin(self):
        cb = build_codebook(n=3, Q=2, B=4, L=4, seed=3)
        for seed in range(20):
            x = encode(cb, 2, seed=seed)
            assert any(np.array_equal(x, cb.table[2, l]) for l in range(4))

    def test_uniform_over_bin(self):
        cb = build_codebook(n=6, Q=2, B=2, L=4, seed=4)
        counts = np.zeros(4)
        for seed in range(10_000):
            x = encode(cb, 0, seed=seed)
            for l in range(4):
                if np.array_equal(x, cb.table[0, l]):
                    counts[l] += 1
                    break
        freqs = counts / 10_000
        assert np.all(np.abs(freqs - 0.25) < 0.02)

    def test_batch_encode(self):
        cb = build_codebook(n=3, Q=2, B=4, L=3, seed=5)
        w = np.array([[0, 3], [2, 2]])
        x = encode(cb, w, seed=1)
        assert x.shape == (2, 2, 3)
        assert cb.bin_of(x).tolist() == w.tolist()
        assert np.array_equal(encode(cb, w, seed=1), x)
        with pytest.raises(ParameterError):
            encode(cb, np.array([0, 4]), seed=1)

    def test_message_range(self):
        cb = build_codebook(n=2, Q=1, B=3, L=2, seed=0)
        with pytest.raises(ParameterError):
            encode(cb, 3, seed=0)
        with pytest.raises(ParameterError):
            encode(cb, -1, seed=0)


class TestScaleToChannel:
    def test_arithmetic(self):
        out = scale_to_channel(np.array([1, -1]), A=2.0, h_e_k=0.5)
        assert out.tolist() == [4.0, -4.0]

    def test_zero_vector(self):
        assert np.all(scale_to_channel(np.zeros(5), 3.0, 1.5) == 0)

    def test_zero_gain(self):
        with pytest.raises(ParameterError):
            scale_to_channel(np.ones(2), 1.0, 0.0)

    def test_power_contract(self):
        # (Q, A) from the power split keep per-symbol power within P
        P = 1e6 / 0.8**2  # so that P_tilde = h_e^2 P = 1e6
        Q, A = select_params(0.8**2 * P, 2, 0.1)
        assert Q == 19
        rng = np.random.default_rng(0)
        x_tilde = rng.integers(-Q, Q + 1, size=100_000)
        x = scale_to_channel(x_tilde, A, 0.8)
        assert np.mean(x**2) <= P * (1 + 1e-9)
        # even the all +/-Q worst case satisfies the constraint
        assert (A * Q / 0.8) ** 2 <= P * (1 + 1e-12)


class TestHardDecode:
    def setup_method(self):
        self.g = NormalizedGains(g=(S2, 1.0))

    def test_noiseless_exact_recovery(self):
        rc = received_constellation(self.g, 2, 10.0)
        dec = hard_decode(rc.points, rc)
        for i in range(rc.points.size):
            v = dec[i]
            assert 10.0 * (v[0] * S2 + v[1]) == pytest.approx(rc.points[i], rel=1e-12)

    def test_tie_goes_to_smaller_point(self):
        rc = received_constellation(self.g, 1, 1.0)
        mid = 0.5 * (rc.points[3] + rc.points[4])
        dec = hard_decode(np.array([mid]), rc)
        low = hard_decode(np.array([rc.points[3]]), rc)
        assert np.array_equal(dec[0], low[0])

    def test_offset_within_gap(self):
        rc = received_constellation(self.g, 1, 100.0)
        y = np.array([100.0 * (S2 - 1) + 0.3])
        assert hard_decode(y, rc)[0].tolist() == [1, -1]

    def test_gamma_violation_rejected(self):
        rc = received_constellation(NormalizedGains(g=(0.5, 1.0)), 2, 1.0)
        with pytest.raises(AmbiguityError):
            hard_decode(np.zeros(1), rc)


def picked_positions(y, rc):
    """Sorted position of the point hard_decode picks for each sample."""
    position = {int(i): pos for pos, i in enumerate(rc.index)}
    picked = mixed_radix_index(hard_decode(y, rc), rc.K, rc.Q)
    return np.array([position[int(i)] for i in picked])


CELL_GAINS = (
    (S2, 1.0),
    (-S2, 1.0),
    (S2, S3, 1.0),
    (Fraction(3, 11), Fraction(-5, 13), 1),
    (Fraction(2, 7), 1),
)


class TestDecisionCell:
    """``nearest_is`` against ``hard_decode`` as the oracle."""

    @settings(max_examples=120, deadline=None)
    @given(
        gains=st.sampled_from(CELL_GAINS),
        Q=st.integers(0, 3),
        A=st.floats(0.01, 1e4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_agrees_with_hard_decode(self, gains, Q, A, seed):
        rc = received_constellation(NormalizedGains(g=gains), Q, A)
        pts = rc.points
        mids = 0.5 * (pts[:-1] + pts[1:])
        span = pts[-1] - pts[0] + A
        rng = np.random.default_rng(seed)
        y = np.concatenate([
            pts,
            mids,
            np.nextafter(mids, -np.inf),
            np.nextafter(mids, np.inf),
            rng.uniform(pts[0] - span, pts[-1] + span, size=200),
            [pts[0] - 1e3 * span, pts[-1] + 1e3 * span, -np.inf, np.inf],
        ])
        want = picked_positions(y, rc)
        assert nearest_is(y, rc, want).all()
        for other in (want - 1, want + 1, rng.integers(0, pts.size, size=y.size)):
            other = np.clip(other, 0, pts.size - 1)
            assert np.array_equal(nearest_is(y, rc, other), other == want)

    @pytest.mark.parametrize("gains", CELL_GAINS)
    def test_ranks_place_every_tuple(self, gains):
        rc = received_constellation(NormalizedGains(g=gains), 2, 3.0)
        ranks = point_ranks(rc)
        assert np.array_equal(ranks[rc.index], np.arange(rc.points.size))
        assert np.array_equal(
            picked_positions(rc.points, rc), np.arange(rc.points.size)
        )

    def test_gamma_violation_rejected(self):
        rc = received_constellation(NormalizedGains(g=(0.5, 1.0)), 2, 1.0)
        with pytest.raises(AmbiguityError, match="violated"):
            point_ranks(rc)


class TestDecodeMessages:
    def test_roundtrip_noiseless(self):
        cbs = [build_codebook(n=4, Q=1, B=4, L=2, seed=10, user_k=k) for k in range(2)]
        msgs = [3, 1]
        seqs = [encode(cbs[k], msgs[k], seed=7) for k in range(2)]
        assert decode_messages(seqs, cbs) == msgs

    def test_absent_sequence_flags_failure(self):
        cb = build_codebook(n=2, Q=1, B=2, L=2, seed=0)
        missing = None
        for a in range(-1, 2):
            for b in range(-1, 2):
                cand = np.array([a, b])
                if cb.bin_of(cand) is None:
                    missing = cand
                    break
            if missing is not None:
                break
        assert missing is not None  # 4 sequences over 9 possibilities
        assert decode_messages([missing], [cb]) == [None]

    def test_duplicate_takes_first_bin(self):
        # n=1, Q=1, B=2, L=2: four draws over three symbols force a duplicate
        cb = None
        for seed in range(50):
            cand = build_codebook(n=1, Q=1, B=2, L=2, seed=seed)
            if cand.duplicate_stats().cross_bin_duplicates > 0:
                cb = cand
                break
        assert cb is not None
        flat = cb.table.reshape(4, 1)
        dup_val = None
        for i in range(4):
            for j in range(i + 1, 4):
                if flat[i, 0] == flat[j, 0] and i // 2 != j // 2:
                    dup_val = flat[i, 0]
        assert dup_val is not None
        first_bin = next(
            b for b in range(2) for l in range(2) if cb.table[b, l, 0] == dup_val
        )
        assert cb.bin_of(np.array([dup_val])) == first_bin

    def test_length_mismatch(self):
        cb = build_codebook(n=3, Q=1, B=2, L=1, seed=0)
        with pytest.raises(ParameterError):
            decode_messages([np.zeros(2, dtype=int)], [cb])


def brute_duplicate_stats(cb):
    owners = {}
    for b in range(cb.B):
        for l in range(cb.L):
            owners.setdefault(tuple(cb.table[b, l]), set()).add(b)
    cross = sum(len(bins) > 1 for bins in owners.values())
    return DuplicateStats(cb.B * cb.L, len(owners), cross)


def brute_first_bin(cb, seq):
    for b in range(cb.B):
        for l in range(cb.L):
            if np.array_equal(cb.table[b, l], seq):
                return b
    return -1


class TestSortedIndex:
    CASES = [(1, 1, 1, 5), (2, 1, 6, 1), (2, 1, 3, 3), (3, 2, 4, 4), (1, 2, 7, 2), (2, 1, 1, 1)]

    @pytest.mark.parametrize("n,Q,B,L", CASES)
    def test_duplicate_stats_match_brute_force(self, n, Q, B, L):
        cross = 0
        for seed in range(25):
            cb = build_codebook(n, Q, B, L, seed=seed)
            stats = cb.duplicate_stats()
            assert stats == brute_duplicate_stats(cb)
            cross += stats.cross_bin_duplicates
        # B = 1 cannot duplicate across bins; the other cases must, sometimes
        assert (cross == 0) == (B == 1)

    @pytest.mark.parametrize("n,Q,B,L", CASES)
    def test_batch_lookup_is_first_match(self, n, Q, B, L):
        # every sequence of the space, once as a batch and once row by row
        space = mixed_radix_digits(np.arange((2 * Q + 1) ** n), n, Q)
        for seed in range(5):
            cb = build_codebook(n, Q, B, L, seed=seed)
            want = [brute_first_bin(cb, seq) for seq in space]
            assert cb.bin_of(space).tolist() == want
            assert [cb.bin_of(seq) for seq in space] == [None if w < 0 else w for w in want]
            assert cb.bin_of(space.reshape(-1, 1, n)).shape == (space.shape[0], 1)

    def test_empty_table_rejected(self):
        with pytest.raises(ParameterError):
            Codebook(n=2, Q=1, B=0, L=2, user_k=0, table=np.zeros((0, 2, 2), dtype=int))

    def test_bad_shape(self):
        cb = build_codebook(n=3, Q=1, B=2, L=2, seed=0)
        for bad in (np.zeros((4, 2), dtype=int), np.int64(1)):
            with pytest.raises(ParameterError):
                cb.bin_of(bad)


class TestEndToEndNoiseless:
    @pytest.mark.parametrize(
        "gains,n,Q",
        [((S2, 1.0), 8, 3), ((S2, S3, 1.0), 7, 2)],
    )
    def test_identity(self, gains, n, Q):
        K = len(gains)
        g = NormalizedGains(g=gains)
        ch = ChannelGains(h=gains, h_e=(1.0,) * K)
        A = 100.0
        rc = received_constellation(g, Q, A)
        for seed in range(25):
            cbs = [build_codebook(n, Q, B=4, L=2, seed=seed, user_k=k) for k in range(K)]
            msgs = [int(stream(seed, "msg", k).integers(0, 4)) for k in range(K)]
            x = np.stack(
                [
                    scale_to_channel(encode(cbs[k], msgs[k], seed=seed), A, 1.0)
                    for k in range(K)
                ]
            )
            y = transmit(x, ch.h, 0.0, seed=seed)
            dec = hard_decode(y, rc)
            got = decode_messages([dec[:, k] for k in range(K)], cbs)
            assert got == msgs
