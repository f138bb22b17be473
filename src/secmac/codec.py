"""Random-binning codec over integer sequences.

Each user owns a table of B*L length-n sequences drawn i.i.d. uniform
over [-Q, Q]^n (duplicates allowed, as in random coding), read as B
equal-size bins of L consecutive sequences.  A message is a bin index; the
stochastic encoder transmits a uniformly chosen member of its bin, and
the receiver recovers the bin by exact table lookup after hard decoding:
``Codebook.bin_of`` maps sequences to their bins as one int64 array, with
-1 for a sequence absent from the table.  Tables and queries are signed
integers, as drawn and hard-decoded; ``nearer`` is the one tie rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constellation import ReceivedConstellation, mixed_radix_digits, mixed_radix_index
from .errors import ParameterError
from .rng import stream


@dataclass(frozen=True, eq=False)  # ndarray fields: identity equality
class Codebook:
    """Binned random code for one user: table has shape (B, L, n).

    On construction the B*L rows are sorted once by exact key, equal keys in
    flat-row order: one int64 sort of each row's mixed-radix code over [-Q, Q]^n
    above bit_length(B*L) flat-row bits, or past 2^63 (n = 40, Q = 2) a stable
    argsort of the rows' bytes.  Lookups and the duplicate count read that index.
    """

    n: int
    Q: int
    B: int
    L: int
    user_k: int
    table: np.ndarray
    _packed: bool = field(repr=False, default=False)  # keys are int64 codes
    _keys: np.ndarray = field(repr=False, default=None)  # sorted row keys
    _rows: np.ndarray = field(repr=False, default=None)  # flat row of each key

    def __post_init__(self):
        if min(self.n, self.B, self.L) < 1 or self.Q < 0:
            raise ParameterError(f"need n, B, L >= 1, Q >= 0, got {self.n, self.B, self.L, self.Q}")
        if self.table.shape != (self.B, self.L, self.n):
            raise ParameterError(f"table shape {self.table.shape} != (B, L, n)")
        size, shift = self.B * self.L, (self.B * self.L).bit_length()
        packed = self.n < 64 and (2 * self.Q + 1) ** self.n << shift <= 2**63  # no huge power
        object.__setattr__(self, "_packed", packed)
        # flat rows run bins, then slots: equal keys in flat-row order put the first match leftmost
        keys = self._key(self.table.reshape(size, self.n))  # refuses a float table
        if not -self.Q <= self.table.min() <= self.table.max() <= self.Q:
            raise ParameterError(f"table contains symbols outside [-{self.Q}, {self.Q}]")
        if packed:
            keys = np.sort(keys << shift | np.arange(size))
            rows, keys = keys & ((1 << shift) - 1), keys >> shift
        else:
            rows = np.argsort(keys, kind="stable")
            keys = keys[rows]
        object.__setattr__(self, "_keys", keys)
        object.__setattr__(self, "_rows", rows)

    def _key(self, rows) -> np.ndarray:
        """Exact key of each row, (..., n) -> (...): its code, or -1 where a symbol
        is outside [-Q, Q] (the encoder refuses those rows); unpacked, the row's
        bytes.  Rows must be a signed-integer array: a float cast would alias 0.3 to 0."""
        if rows.dtype.kind != "i":
            raise ParameterError(f"symbols must be signed integers, got dtype {rows.dtype}")
        if not self._packed:
            return np.ascontiguousarray(rows, dtype=np.int64).view(f"V{8 * self.n}")[..., 0]
        try:
            return mixed_radix_index(rows, self.n, self.Q)
        except ParameterError:  # some row leaves the alphabet: clipping moves it
            clipped = np.clip(rows, -self.Q, self.Q)
            codes = mixed_radix_index(clipped, self.n, self.Q)
            return np.where((clipped == rows).all(axis=-1), codes, -1)

    def bin_of(self, sequence: np.ndarray) -> np.ndarray:
        """Bin of the first exact table match (``searchsorted`` of the key),
        as an int64 array of shape ``sequence.shape[:-1]`` (0-d for one row)
        holding -1 where a row is absent from the table."""
        seq = np.asarray(sequence)
        if seq.ndim < 1 or seq.shape[-1] != self.n:
            raise ParameterError(f"sequence shape {seq.shape} does not end in ({self.n},)")
        key = self._key(seq)
        pos = np.minimum(np.searchsorted(self._keys, key), self._keys.size - 1)
        return np.where(self._keys[pos] == key, self._rows[pos] // self.L, -1)

    def duplicate_stats(self) -> int:
        """Cross-bin duplicates: distinct sequences present in more than one
        bin.  Each run of equal sorted keys (int64 when packed) is one
        distinct sequence, counted when its first and last rows (whose bins
        ascend along the run) lie in different bins."""
        keys, bins = self._keys, self._rows // self.L
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        ends = np.append(starts[1:], keys.size) - 1
        return int(np.count_nonzero(bins[starts] != bins[ends]))


def build_codebook(n: int, Q: int, B: int, L: int, seed, user_k: int = 0) -> Codebook:
    """Draw B*L i.i.d. uniform sequences as B bins of L consecutive rows.

    The rows are i.i.d., so these bins have the law of shuffled ones.
    """
    if n < 1 or Q < 1 or B < 1 or L < 1:
        raise ParameterError(f"need n, Q, B, L >= 1, got {(n, Q, B, L)}")
    table = stream(seed, "codebook/sequences", user_k).integers(-Q, Q + 1, size=(B, L, n))
    return Codebook(n=n, Q=Q, B=B, L=L, user_k=user_k, table=table)


def encode(cb: Codebook, w, seed) -> np.ndarray:
    """Transmit sequences for messages w, each a uniform draw from its bin.

    ``w`` is one message or an array of them; the result has shape
    ``np.shape(w) + (n,)``.  All slots come from one draw on the
    (seed, "encode", user) stream, and no draw is made when L = 1.
    """
    w = np.asarray(w)
    if w.dtype.kind not in "iu":  # a bool array would index as a mask, a float not at all
        raise ParameterError(f"messages must be integers, got dtype {w.dtype}")
    if np.any((w < 0) | (w >= cb.B)):
        raise ParameterError(f"message {w} out of range [0, {cb.B})")
    if cb.L == 1:
        return cb.table[w, 0]
    slot = stream(seed, "encode", cb.user_k).integers(0, cb.L, size=w.shape)
    return cb.table[w, slot]


def nearer(y: np.ndarray, pts: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Sorted position of the nearer of the points at ``idx - 1`` and ``idx``
    (``idx`` clipped to [1, M-1]) for each sample of ``y``, a tie going to the
    smaller point; 0 for a one-point set.  O(1) per sample; with ``idx =
    searchsorted(pts, y)`` it is the nearest point of all."""
    if pts.size == 1:
        return np.zeros_like(idx)
    idx = np.clip(idx, 1, pts.size - 1)
    return idx - ((y - pts[idx - 1]) <= (pts[idx] - y))


def hard_decode(y: np.ndarray, rc: ReceivedConstellation) -> np.ndarray:
    """Per-sample nearest constellation point, returned as symbol tuples.

    Output is a (..., K) int64 array for samples of shape (...); a scalar
    counts as one sample.  Distance ties go to the smaller point value;
    -inf and +inf decode to the end points, a NaN sample is refused.
    A constellation built with ``index=False`` is refused.
    """
    if rc.index is None:
        raise ParameterError("cannot hard-decode: the constellation has no tuple index")
    if not rc.gamma_holds:
        raise ParameterError(f"cannot hard-decode: gamma status is {rc.gamma.value}")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if np.isnan(y).any():
        raise ParameterError("cannot hard-decode a NaN sample")
    pos = nearer(y, rc.points, np.searchsorted(rc.points, y))
    return mixed_radix_digits(rc.index[pos], rc.K, rc.Q)
