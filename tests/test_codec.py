import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secmac import (
    ChannelGains,
    NormalizedGains,
    ParameterError,
    build_codebook,
    encode,
    hard_decode,
    normalize_gains,
    received_constellation,
    select_params,
)
from secmac.codec import Codebook, nearer
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

    def test_equality_is_identity(self):
        # array fields have no truth value, so records compare by identity
        a = build_codebook(n=4, Q=2, B=4, L=3, seed=9)
        b = build_codebook(n=4, Q=2, B=4, L=3, seed=9)
        assert a == a and a != b
        assert len({a, b}) == 2
        rc = received_constellation(NormalizedGains(g=(S2, 1.0)), 1, 1.0)
        assert rc == rc and rc != received_constellation(NormalizedGains(g=(S2, 1.0)), 1, 1.0)

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

    @pytest.mark.parametrize("L", [1, 3])
    def test_message_dtype(self, L):
        # a bool array would select rows as a mask, a float one would not index
        cb = build_codebook(n=3, Q=2, B=4, L=L, seed=0)
        for w in (np.array([True, False, True, False]), np.array([0.0, 1.0]), 1.0):
            with pytest.raises(ParameterError, match="messages must be integers"):
                encode(cb, w, seed=1)
        w = np.array([3, 0, 2, 2, 1])
        x = encode(cb, w.astype(np.int32), seed=1)
        assert x.shape == (5, 3) and np.array_equal(x, encode(cb, w, seed=1))


def test_power_contract():
    # (Q, A) from the power split keep the per-symbol power of the channel
    # input x = A * x_tilde / h_e within P
    P = 1e6 / 0.8**2  # so that P_tilde = h_e^2 P = 1e6
    Q, A = select_params(0.8**2 * P, 2, 0.1)
    assert Q == 19
    rng = np.random.default_rng(0)
    x_tilde = rng.integers(-Q, Q + 1, size=100_000)
    x = A * x_tilde / 0.8
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

    def test_nan_sample_rejected(self):
        # searchsorted puts NaN past the last point, which would decode to (1, 1)
        rc = received_constellation(self.g, 1, 1.0)
        with pytest.raises(ParameterError, match="NaN"):
            hard_decode(np.array([np.nan]), rc)

    def test_infinite_samples_decode_to_the_end_points(self):
        rc = received_constellation(self.g, 1, 1.0)
        assert hard_decode(np.array([-np.inf, np.inf]), rc).tolist() == [[-1, -1], [1, 1]]

    def test_gamma_violation_rejected(self):
        rc = received_constellation(NormalizedGains(g=(0.5, 1.0)), 2, 1.0)
        with pytest.raises(ParameterError, match="gamma status"):
            hard_decode(np.zeros(1), rc)

    @pytest.mark.parametrize("gains", [(S2, 1.0), (0.5, 1.0)])
    def test_values_only_constellation_rejected(self, gains):
        # a build without its tuple index has nothing to decode to (CLI exit 2)
        rc = received_constellation(NormalizedGains(g=gains), 2, 1.0, index=False)
        with pytest.raises(ParameterError, match="no tuple index"):
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


def sweep_keeps(y, pts, pos):
    """The sweep's test that hard decoding keeps each sample at its sorted
    position: the nearer of that point and its neighbour on the sample's side."""
    return nearer(y, pts, pos + (y >= pts[pos])) == pos


class TestDecisionCell:
    """The sweep's candidate form against ``hard_decode``, and ``hard_decode``
    against the nearest point by brute force, a tie going to the smaller."""

    @settings(max_examples=120, deadline=None)
    @given(
        gains=st.sampled_from(CELL_GAINS),
        Q=st.integers(0, 3),
        A=st.floats(0.01, 1e4),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(gains=(Fraction(2, 7), 1), Q=1, A=7.0, seed=0)  # integer points: exact ties
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
        # beyond the end points (and at +-inf) the nearest point is an end point
        assert np.array_equal(want, np.abs(np.clip(y, pts[0], pts[-1])[:, None] - pts).argmin(1))
        assert sweep_keeps(y, pts, want).all()
        for other in (want - 1, want + 1, rng.integers(0, pts.size, size=y.size)):
            other = np.clip(other, 0, pts.size - 1)
            assert np.array_equal(sweep_keeps(y, pts, other), other == want)

    @pytest.mark.parametrize("gains", CELL_GAINS)
    def test_ranks_place_every_tuple(self, gains):
        # each point decodes to the tuple whose sorted position it holds
        rc = received_constellation(NormalizedGains(g=gains), 2, 3.0)
        assert np.array_equal(
            picked_positions(rc.points, rc), np.arange(rc.points.size)
        )


class TestDecodeMessages:
    """Messages recovered with one ``bin_of`` per user."""

    def test_roundtrip_noiseless(self):
        cbs = [build_codebook(n=4, Q=1, B=4, L=2, seed=10, user_k=k) for k in range(2)]
        msgs = [3, 1]
        seqs = [encode(cbs[k], msgs[k], seed=7) for k in range(2)]
        assert [cb.bin_of(seq) for seq, cb in zip(seqs, cbs)] == msgs

    def test_absent_sequence_flags_failure(self):
        cb = build_codebook(n=2, Q=1, B=2, L=2, seed=0)
        space = mixed_radix_digits(np.arange(9), 2, 1)
        bins = cb.bin_of(space)
        assert np.count_nonzero(bins < 0) >= 5  # 4 sequences over 9 possibilities
        missing = space[np.argmin(bins)]
        assert cb.bin_of(missing) == -1

    @pytest.mark.parametrize("n,Q,B,L", [(2, 1, 2, 2), (39, 1, 2, 1)])  # packed, byte keys
    def test_one_row_gives_a_0d_array(self, n, Q, B, L):
        cb = build_codebook(n, Q, B, L, seed=3)
        absent = np.full(n, Q + 1)
        for row, want in ((cb.table[1, 0], brute_first_bin(cb, cb.table[1, 0])), (absent, -1)):
            got = cb.bin_of(row)
            assert isinstance(got, np.ndarray)
            assert (got.dtype, got.shape, got.item()) == (np.int64, (), want)

    def test_duplicate_takes_first_bin(self):
        # n=1, Q=1, B=2, L=2: four draws over three symbols force a duplicate
        cb = None
        for seed in range(50):
            cand = build_codebook(n=1, Q=1, B=2, L=2, seed=seed)
            if cand.duplicate_stats() > 0:
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


def brute_cross_bin_duplicates(cb):
    """Distinct table rows that occur in more than one bin."""
    owners = {}
    for b in range(cb.B):
        for l in range(cb.L):
            owners.setdefault(tuple(cb.table[b, l]), set()).add(b)
    return sum(len(bins) > 1 for bins in owners.values())


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
            assert stats == brute_cross_bin_duplicates(cb)
            cross += stats
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
            assert [cb.bin_of(seq).item() for seq in space] == want
            assert cb.bin_of(space.reshape(-1, 1, n)).shape == (space.shape[0], 1)

    # (2Q+1)^n << bit_length(B*L) against 2^63: both sides of the int64 key
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 45),
        Q=st.integers(1, 3),
        B=st.integers(1, 6),
        L=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=39, Q=1, B=1, L=1, seed=0)  # 3^39 << 1 fits: packed
    @example(n=39, Q=1, B=2, L=1, seed=0)  # 3^39 << 2 does not: byte keys
    @example(n=26, Q=2, B=3, L=1, seed=1)  # 5^26 << 2 fits
    @example(n=26, Q=2, B=2, L=2, seed=1)  # 5^26 << 3 does not
    @example(n=1, Q=1, B=6, L=6, seed=2)  # 36 rows over 3 symbols
    def test_keys_agree_with_brute_force(self, n, Q, B, L, seed):
        cb = build_codebook(n, Q, B, L, seed=seed)
        packed = (2 * Q + 1) ** n << (B * L).bit_length() <= 2**63
        assert (cb._keys.dtype == np.int64) == packed
        assert cb.duplicate_stats() == brute_cross_bin_duplicates(cb)

        rng = np.random.default_rng(seed)
        rows = cb.table.reshape(-1, n)
        drawn = rng.integers(-Q, Q + 1, size=(8, n))
        # one symbol at +-(Q+1), in any slot, and a row whose raw mixed-radix
        # code equals a table row's: one digit down by 1, the next up by 2Q+1
        outside = np.concatenate([rows[:4], drawn[:4]])
        slots = rng.integers(0, n, size=outside.shape[0])
        outside[np.arange(outside.shape[0]), slots] = rng.choice([-Q - 1, Q + 1], outside.shape[0])
        queries = [rows, drawn, outside]
        if n > 1:
            alias = rows[:1].copy()
            alias[0, 0] -= 1
            alias[0, 1] += 2 * Q + 1
            queries.append(alias)
        extreme = np.full((2, n), np.iinfo(np.int64).max)
        extreme[1, 0] = np.iinfo(np.int64).min
        queries = np.concatenate(queries + [extreme])
        want = [brute_first_bin(cb, q) for q in queries]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning from a huge symbol
            assert cb.bin_of(queries).tolist() == want
            assert [cb.bin_of(q).item() for q in queries] == want
        assert all(w == -1 for w in want[rows.shape[0] + 8:])
        assert cb.bin_of(queries.reshape(-1, 1, n)).reshape(-1).tolist() == want
        empty = cb.bin_of(queries[:0])  # an empty (0, n) batch
        assert empty.dtype == np.int64 and empty.shape == (0,)

    @pytest.mark.parametrize("bad", [2, -2, np.iinfo(np.int64).min, np.nan])
    def test_table_outside_the_alphabet_rejected(self, bad):
        table = np.zeros((2, 2, 3), dtype=np.asarray(bad).dtype)
        table[1, 0, 2] = bad
        why = "got dtype float64" if np.isnan(bad) else "outside"  # a float table: its dtype
        with pytest.raises(ParameterError, match=why):
            Codebook(n=3, Q=1, B=2, L=2, user_k=0, table=table)

    @pytest.mark.parametrize("bad", [0.3, -0.7, 1 - 1e-16])
    def test_fractional_table_rejected(self, bad):
        # the int64 keys would hold a row of 0.3 as 0; any float table is refused
        table = np.zeros((2, 2, 3))
        table[1, 0, 2] = bad
        with pytest.raises(ParameterError, match="got dtype float64"):
            Codebook(n=3, Q=1, B=2, L=2, user_k=0, table=table)
        table[1, 0, 2] = math.copysign(1.0, bad)
        with pytest.raises(ParameterError, match="got dtype float64"):
            Codebook(n=3, Q=1, B=2, L=2, user_k=0, table=table)
        cb = Codebook(n=3, Q=1, B=2, L=2, user_k=0, table=table.astype(np.int32))
        assert cb.bin_of(table[1, 0].astype(np.int8)) == 1
        with pytest.raises(ParameterError, match="got dtype float64"):
            cb.bin_of(table[1, 0])

    def test_empty_table_rejected(self):
        with pytest.raises(ParameterError):
            Codebook(n=2, Q=1, B=0, L=2, user_k=0, table=np.zeros((0, 2, 2), dtype=int))

    @pytest.mark.parametrize("shape", [(2, 2, 3), (2, 1, 2), (4, 2)])
    def test_table_shape_other_than_b_l_n_rejected(self, shape):
        with pytest.raises(ParameterError, match=rf"table shape \({shape[0]}, .* != \(B, L, n\)"):
            Codebook(n=2, Q=1, B=2, L=2, user_k=0, table=np.zeros(shape, dtype=int))

    def test_negative_alphabet_bound_rejected(self):
        # refused before the keys, whose alphabet clip [-Q, Q] would be empty
        with pytest.raises(ParameterError, match="Q >= 0"):
            Codebook(n=2, Q=-1, B=1, L=1, user_k=0, table=np.zeros((1, 1, 2), dtype=int))

    def test_bad_shape(self):
        # float rows are refused by their dtype, whole or not
        cb = build_codebook(n=3, Q=1, B=2, L=2, seed=0)
        bad_rows = (np.array([np.nan, 0, 0]), np.array([0.3, 1.0, 0.2]), np.zeros(3))
        for bad in (np.zeros((4, 2), dtype=int), np.int64(1), *bad_rows):
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
            # the physical channel: inputs x_k = A*v_k/h_{k,e}, output sum_k h_k x_k
            v = np.stack([encode(cbs[k], msgs[k], seed=seed) for k in range(K)])
            y = np.array(ch.h) @ (A * v / np.array(ch.h_e)[:, None])
            dec = hard_decode(y, rc)
            assert [cb.bin_of(dec[:, k]) for k, cb in enumerate(cbs)] == msgs
