"""Integer transmit constellations and the received point set.

Each user sends symbols from {-Q, ..., Q} scaled by a common amplitude A.
The receiver observes A * sum_k g_k v_k, so the noiseless observations
form a one-dimensional point set whose minimum distance controls the
hard-decoding error probability.  Every point is uniquely decomposable
into its per-user symbols exactly when the gain ratios are rationally
independent; over the rationals collisions are decided exactly, over the
floats near-collisions are flagged as suspect rather than proven.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .channel import NormalizedGains, normal_tail
from .errors import ParameterError, SizeCapError

ENUMERATION_CAP = 10_000_000
SUSPECT_REL_GAP = 1e-9


class GammaStatus(enum.Enum):
    """Unique-decomposability verdict for a received constellation."""

    HOLDS = "holds"
    VIOLATED = "violated"
    SUSPECT = "suspect"


class SelectedParams(NamedTuple):
    Q: int
    A: float


def select_params(P_tilde: float, K: int, epsilon: float) -> SelectedParams:
    """Power-split parameters (Q, A) for effective power P_tilde.

    Q = floor(P_tilde^((1-eps)/(2(K+eps)))) and
    A = P_tilde^((K-1+2eps)/(2(K+eps))), which keeps A^2 Q^2 <= P_tilde.
    Requires P_tilde >= 1 so that Q >= 1.
    """
    if K < 2:
        raise ParameterError(f"K must be >= 2, got {K}")
    if not 0 < epsilon < 1:
        raise ParameterError(f"epsilon must be in (0,1), got {epsilon}")
    if not math.isfinite(P_tilde):
        raise ParameterError(f"P_tilde must be finite, got {P_tilde}")
    if P_tilde < 1:
        raise ParameterError(
            f"infeasible power P_tilde={P_tilde}: constellation bound Q would be 0"
        )
    try:
        q_exp = (1.0 - epsilon) / (2.0 * (K + epsilon))
        a_exp = (K - 1.0 + 2.0 * epsilon) / (2.0 * (K + epsilon))
    except OverflowError:
        raise ParameterError(f"K = {K} lies beyond the float64 range") from None
    Q = int(math.floor(P_tilde**q_exp))
    A = float(P_tilde**a_exp)
    # the closed forms satisfy A^2 Q^2 <= P_tilde exactly; nudge A down by
    # ulps when float rounding lands a boundary case just above it
    while A * A * Q * Q > P_tilde:
        A = math.nextafter(A, 0.0)
    return SelectedParams(Q=Q, A=A)


@dataclass(frozen=True, eq=False)  # ndarray fields: identity equality
class ReceivedConstellation:
    """Sorted distinct receiver points with their symbol decompositions.

    ``points`` holds the distinct values A * sum_k g_k v_k in increasing
    order.  ``index`` is aligned with ``points`` and holds, per point, the
    mixed-radix index of its first symbol tuple (``mixed_radix_digits``
    expands it); it is None for a set built with ``index=False``, which
    cannot be hard-decoded.  ``d_min`` is the minimum adjacent gap, 0.0
    when exact collisions exist and +inf for a single-point set.
    """

    K: int
    Q: int
    points: np.ndarray
    index: np.ndarray | None
    gamma: GammaStatus
    d_min: float

    @property
    def gamma_holds(self) -> bool:
        return self.gamma is GammaStatus.HOLDS


def mixed_radix_digits(index, K: int, Q: int) -> np.ndarray:
    """Symbol tuples in [-Q, Q]^K of mixed-radix indices, shape (..., K).

    Index 0 is (-Q, ..., -Q) and the first coordinate is most significant,
    so ``np.arange((2Q+1)**K)`` enumerates the grid in lexicographic order.
    """
    rem = np.asarray(index, dtype=np.int64)
    base = 2 * Q + 1
    out = np.empty((K,) + rem.shape, dtype=np.int64)  # one contiguous row per user
    for k in range(K - 1, -1, -1):
        rem, out[k] = np.divmod(rem, base)
    out -= Q
    return np.moveaxis(out, 0, -1)


def mixed_radix_index(digits, K: int, Q: int) -> np.ndarray:
    """Mixed-radix indices of symbol tuples in [-Q, Q]^K, shape (..., K) -> (...).

    The inverse of ``mixed_radix_digits``.  No tuple takes another's index:
    ``SizeCapError`` when (2Q+1)^K does not fit int64, ``ParameterError`` for
    digits outside [-Q, Q] or not signed integers (floats truncate, uint64 wraps).
    """
    base = 2 * Q + 1
    if base**K > 2**63:
        raise SizeCapError(f"(2Q+1)^K = {base}^{K} does not fit an int64 index")
    digits = np.asarray(digits)
    if digits.dtype.kind != "i":
        raise ParameterError(f"digits must be signed integers, got dtype {digits.dtype}")
    shifted = np.add(digits, Q, dtype=np.int64)  # a shift past 2^63 - 1 wraps negative
    try:
        return np.ravel_multi_index(tuple(np.moveaxis(shifted, -1, 0)), (base,) * K)
    except ValueError:  # a shifted digit outside [0, 2Q], or a tuple not K long
        raise ParameterError(f"digits leave the alphabet [-{Q}, {Q}]^{K}") from None


def tuple_sums(coefs, Q: int, dtype=float) -> np.ndarray:
    """sum_k coefs[k] * v_k for every v in [-Q, Q]^K, in mixed-radix order.

    Users are added one at a time, first user first, in ``dtype``
    arithmetic (``object`` gives exact Python ints); each step is an
    outer sum, so no digit table is built.
    """
    sym = np.arange(-Q, Q + 1).astype(dtype)
    vals = np.zeros(1, dtype=dtype)
    for c in coefs:
        vals = np.add.outer(vals, c * sym).ravel()
    return vals


def _packed_order(sums: np.ndarray) -> np.ndarray:
    """Candidate sorting permutation of float64 ``sums`` (a float build's,
    or an exact build's integers below 2^53) from one int64 sort.

    Each key is the sum's bits mapped to an order-preserving int64, with
    its low bit_length(M-1) bits replaced by the tuple's mixed-radix
    index, so the key sort orders by value except among sums that agree
    in all but those bits, which it orders by index.  Equal sums share
    their bits (no sum is -0.0: ``tuple_sums`` starts from +0.0, and a
    float sum is -0.0 only when both terms are), so they come out in
    index order, as from a stable argsort.  The caller repairs the
    gathered values with a stable argsort when two come out of order.
    """
    M = sums.size
    low = (1 << (M - 1).bit_length()) - 1
    bits = sums.view(np.int64)
    key = bits >> 63  # -1 for a negative sum, whose 63 magnitude bits are flipped
    key &= np.int64(0x7FFF_FFFF_FFFF_FFFF)
    key ^= bits
    key &= np.int64(~low)
    key |= np.arange(M)
    key.sort()
    key &= low
    return key


def received_constellation(
    g: NormalizedGains, Q: int, A: float, *, index: bool = True
) -> ReceivedConstellation:
    """Enumerate the received point set for symbol bound Q and amplitude A.

    Rational gain ratios are scaled by their common denominator D and
    summed as integers (float64, exact below 2^53, or Python ints once D
    or K*Q*max|coef| reaches 2^53), so collisions there are proofs.  Float
    ratios get exact duplicate detection plus a "suspect" verdict when two
    points land within 1e-9 * A of each other.  A set of more than
    ``ENUMERATION_CAP`` symbol tuples is refused before it is built.

    With ``index=False`` the sums are sorted in place by value and the
    result's ``index`` is None; points, gamma and d_min are the same bit
    for bit, as no sum is NaN or -0.0.  Otherwise float64 sums, exact or
    not, take one sort of packed (value, index) int64 keys
    (``_packed_order``) and Python-int sums one stable argsort; both put
    equal sums in mixed-radix index order, so a collided point keeps its
    first tuple.  Distinct float64 sums too close for the truncated key can
    come out of order; a stable argsort of the gathered sums repairs that.
    A float build's peak RSS rises by 16 bytes per tuple without the index
    (160 MB at ``ENUMERATION_CAP``), by 24 (240 MB) with it and by 33
    (330 MB) when it needs the repair.  A distinct-sum set whose smallest
    gap times A underflows to 0 is refused, not reported as d_min = 0.
    """
    if Q < 0:
        raise ParameterError(f"Q must be >= 0, got {Q}")
    if not (math.isfinite(A) and A > 0):
        raise ParameterError(f"A must be positive and finite, got {A}")
    K = g.K
    M = (2 * Q + 1) ** K
    if M > ENUMERATION_CAP:
        raise SizeCapError(f"constellation needs {M} points, cap is {ENUMERATION_CAP}")

    if g.exact:
        ratios = [Fraction(x) for x in g.g]
        D = math.lcm(*(r.denominator for r in ratios))
        coefs = [int(r * D) for r in ratios]
        wide = max(D, K * max(Q, 1) * max(abs(c) for c in coefs)) >= 2**53
        sums = tuple_sums(coefs, Q, object if wide else float)
    else:
        # |sum| <= Q * sum|g| (a Python float sum: inf past the range, no warning),
        # so both the sums and the points A * sum stay finite; Q = 0 is the point 0
        if Q and not math.isfinite(max(A, 1.0) * Q * sum(abs(float(x)) for x in g.g)):
            raise ParameterError("received points overflow float64")
        sums = tuple_sums(g.as_floats(), Q)
    if index:
        order = np.argsort(sums, kind="stable") if sums.dtype == object else _packed_order(sums)
        sv = sums[order]
    else:
        order, sv = None, sums
        sv.sort()
    del sums
    collided = False
    if not (sv[1:] > sv[:-1]).all():
        if (sv[1:] < sv[:-1]).any():  # a near-tie the packed key misordered
            fix = np.argsort(sv, kind="stable")
            order = order[fix]  # one array at a time, so the peak stays lower
            sv = sv[fix]
            del fix
        keep = np.concatenate(([True], sv[1:] != sv[:-1]))
        collided = not keep.all()
        if collided:
            sv = sv[keep]
            if index:
                order = order[keep]
    try:
        with np.errstate(over="ignore"):  # refused below
            points = np.asarray(sv / D, dtype=float) if g.exact else sv
            points *= A
    except OverflowError:  # a Python-int point past the float range
        raise ParameterError("received points overflow float64") from None
    if not (np.isfinite(points[0]) and np.isfinite(points[-1])):
        raise ParameterError("received points overflow float64")

    gamma = GammaStatus.HOLDS
    if collided:
        gamma, d_min = GammaStatus.VIOLATED, 0.0
    elif M < 2:
        d_min = math.inf
    elif g.exact:
        d_min = float(A * (np.diff(sv).min() / D))
    else:
        d_min = float(np.diff(points).min())
        if d_min < SUSPECT_REL_GAP * A:
            gamma = GammaStatus.SUSPECT
    if gamma is GammaStatus.HOLDS and d_min == 0:
        raise ParameterError(f"the minimum gap underflows float64 at A = {A}")
    return ReceivedConstellation(K=K, Q=Q, points=points, index=order, gamma=gamma, d_min=d_min)


def pe_upper_bound(d_min: float) -> tuple[float, float]:
    """(Gaussian tail, exponential) bounds on the symbol error probability.

    Returns (Phi_bar(d_min/2), exp(-d_min^2/8)) for unit-variance noise, so
    the caller passes d_min / sigma for noise of standard deviation sigma;
    the tail bound never exceeds the exponential one.  An infinite d_min
    (a single-point constellation, or no noise) gives (0, 0); a NaN is refused.
    """
    if not d_min >= 0:
        raise ParameterError(f"d_min must be >= 0, got {d_min}")
    return normal_tail(d_min / 2.0), math.exp(-d_min * d_min / 8.0)
