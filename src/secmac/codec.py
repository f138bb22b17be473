"""Random-binning codec over integer sequences.

Each user owns a table of B*L length-n sequences drawn i.i.d. uniform
over [-Q, Q]^n (duplicates allowed, as in random coding) and shuffled
into B equal-size bins of L sequences.  A message is a bin index; the
stochastic encoder transmits a uniformly chosen member of its bin, and
the receiver recovers the bin by exact table lookup after hard decoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .constellation import ReceivedConstellation, mixed_radix_digits
from .errors import AmbiguityError, ParameterError
from .rng import stream


class DuplicateStats(NamedTuple):
    total_sequences: int
    distinct_sequences: int
    cross_bin_duplicates: int  # distinct sequences present in more than one bin


def _row_keys(rows) -> np.ndarray:
    """Exact fixed-width byte key of each length-n row: (..., n) -> (...).

    The key is the row's int64 bytes, so it is exact for every n and Q,
    including sequence spaces past 2^63 that no packed integer could hold.
    """
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    return rows.view(np.dtype((np.void, rows.shape[-1] * rows.itemsize)))[..., 0]


@dataclass(frozen=True)
class Codebook:
    """Binned random code for one user: table has shape (B, L, n).

    On construction the B*L rows are sorted once, stably, by exact row
    key; lookups and duplicate counts both read that one index.
    """

    n: int
    Q: int
    B: int
    L: int
    user_k: int
    table: np.ndarray
    _keys: np.ndarray = field(repr=False, compare=False, default=None)  # sorted row keys
    _rows: np.ndarray = field(repr=False, compare=False, default=None)  # flat row of each key

    def __post_init__(self):
        if min(self.n, self.B, self.L) < 1:
            raise ParameterError(f"need n, B, L >= 1, got {(self.n, self.B, self.L)}")
        if self.table.shape != (self.B, self.L, self.n):
            raise ParameterError(f"table shape {self.table.shape} != (B, L, n)")
        if np.any(np.abs(self.table) > self.Q):
            raise ParameterError(f"table contains symbols outside [-{self.Q}, {self.Q}]")
        # flat rows run bins in order, then slots in order, so the stable sort
        # puts the first match of a sequence leftmost among its equal keys
        keys = _row_keys(self.table.reshape(self.B * self.L, self.n))
        rows = np.argsort(keys, kind="stable")
        object.__setattr__(self, "_keys", keys[rows])
        object.__setattr__(self, "_rows", rows)

    def bin_of(self, sequence: np.ndarray) -> int | None | np.ndarray:
        """Bin of the first exact table match of each length-n row.

        One row gives an int, or None if it is absent; an (..., n) batch
        gives an int64 array of shape (...) with -1 where a row is absent.
        """
        seq = np.asarray(sequence)
        if seq.ndim < 1 or seq.shape[-1] != self.n:
            raise ParameterError(f"sequence shape {seq.shape} does not end in ({self.n},)")
        key = _row_keys(seq)
        pos = np.minimum(np.searchsorted(self._keys, key), self._keys.size - 1)
        bins = np.where(self._keys[pos] == key, self._rows[pos] // self.L, -1)
        if seq.ndim == 1:
            return int(bins) if bins >= 0 else None
        return bins

    def duplicate_stats(self) -> DuplicateStats:
        """Counts over runs of equal sorted keys: each run is one distinct
        sequence, and a cross-bin duplicate when its first and last rows
        (whose bins ascend along the run) lie in different bins."""
        keys, bins = self._keys, self._rows // self.L
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        ends = np.append(starts[1:], keys.size) - 1
        return DuplicateStats(
            total_sequences=self.B * self.L,
            distinct_sequences=starts.size,
            cross_bin_duplicates=int(np.count_nonzero(bins[starts] != bins[ends])),
        )


def build_codebook(n: int, Q: int, B: int, L: int, seed, user_k: int = 0) -> Codebook:
    """Draw B*L i.i.d. uniform sequences and shuffle them into B bins of L.

    The bin assignment is a seeded random permutation, so every bin holds
    exactly L sequences and every message stays encodable.
    """
    if n < 1 or Q < 1 or B < 1 or L < 1:
        raise ParameterError(f"need n, Q, B, L >= 1, got {(n, Q, B, L)}")
    rng = stream(seed, "codebook/sequences", user_k)
    seqs = rng.integers(-Q, Q + 1, size=(B * L, n), dtype=np.int64)
    perm = stream(seed, "codebook/binning", user_k).permutation(B * L)
    return Codebook(n=n, Q=Q, B=B, L=L, user_k=user_k, table=seqs[perm].reshape(B, L, n))


def encode(cb: Codebook, w, seed) -> np.ndarray:
    """Transmit sequences for messages w, each a uniform draw from its bin.

    ``w`` is one message or an array of them; the result has shape
    ``np.shape(w) + (n,)``.  All slots come from one draw on the
    (seed, "encode", user) stream, and no draw is made when L = 1.
    """
    w = np.asarray(w)
    if np.any((w < 0) | (w >= cb.B)):
        raise ParameterError(f"message {w} out of range [0, {cb.B})")
    if cb.L == 1:
        return cb.table[w, 0]
    slot = stream(seed, "encode", cb.user_k).integers(0, cb.L, size=w.shape)
    return cb.table[w, slot]


def scale_to_channel(x_tilde: np.ndarray, A: float, h_e_k) -> np.ndarray:
    """Channel input A * x_tilde / h_e_k (pre-inverts the eavesdropper gain).

    ``h_e_k`` is one user's gain, or one gain per user along the last axis.
    """
    h_e_k = np.asarray(h_e_k, dtype=float)
    if np.any(h_e_k == 0):
        raise ParameterError("eavesdropper gain is zero")
    return A * np.asarray(x_tilde) / h_e_k


def hard_decode(y: np.ndarray, rc: ReceivedConstellation) -> np.ndarray:
    """Per-sample nearest constellation point, returned as symbol tuples.

    Output is an (n, K) integer array.  Distance ties go to the smaller
    point value.
    """
    if not rc.gamma_holds:
        raise AmbiguityError(
            f"cannot hard-decode: gamma status is {rc.gamma.value}"
        )
    y = np.atleast_1d(np.asarray(y, dtype=float))
    pts = rc.points
    if pts.size == 1:
        return mixed_radix_digits(np.repeat(rc.index, y.size), rc.K, rc.Q)
    idx = np.clip(np.searchsorted(pts, y), 1, pts.size - 1)
    take_left = (y - pts[idx - 1]) <= (pts[idx] - y)
    sel = np.where(take_left, idx - 1, idx)
    return mixed_radix_digits(rc.index[sel], rc.K, rc.Q)


def point_ranks(rc: ReceivedConstellation) -> np.ndarray:
    """Sorted position of each symbol tuple's point, by mixed-radix index.

    Needs gamma to hold, so that every tuple has a point of its own.
    """
    if not rc.gamma_holds:
        raise AmbiguityError(f"cannot hard-decode: gamma status is {rc.gamma.value}")
    ranks = np.empty(rc.points.size, dtype=np.int64)
    ranks[rc.index] = np.arange(rc.points.size)
    return ranks


def nearest_is(y: np.ndarray, rc: ReceivedConstellation, pos: np.ndarray) -> np.ndarray:
    """Whether ``hard_decode`` would pick the point at sorted position
    ``pos`` for each sample of ``y``.

    Each sample is tested against its own decision cell only, with the
    same float expressions and tie rule as ``hard_decode``: O(1) per
    sample, with no search and no digit expansion.
    """
    pts = rc.points
    p = pts[pos]
    upper_ok = (y - p <= pts.take(pos + 1, mode="clip") - y) | (pos == pts.size - 1)
    lower_ok = (y - pts.take(pos - 1, mode="clip") > p - y) | (pos == 0)
    return np.where(y >= p, upper_ok, lower_ok)


def decode_messages(
    decoded: Sequence[np.ndarray], codebooks: Sequence[Codebook]
) -> list[int | None | np.ndarray]:
    """Bin indices recovered from hard-decoded sequences, one per user.

    Each entry is one sequence or an (..., n) batch, looked up with
    ``Codebook.bin_of``.  A sequence absent from its user's table yields
    None, or -1 in a batch (a block decoding failure to be counted by the
    caller, not an exception).
    """
    if len(decoded) != len(codebooks):
        raise ParameterError(
            f"{len(decoded)} sequences for {len(codebooks)} codebooks"
        )
    return [cb.bin_of(np.asarray(seq)) for seq, cb in zip(decoded, codebooks)]
