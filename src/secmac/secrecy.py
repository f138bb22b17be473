"""Exact rate and equivocation computations for finite-alphabet wiretap MACs.

The achievable region of a discrete memoryless multiple-access channel
with an eavesdropper is cut out by per-subset constraints
I(U_S; Y | U_{S^c}) together with one secrecy sum constraint
[I(U; Y) - I(U; Z)]^+.  The region and the sum entropy are exact up to
float rounding, from fully enumerated tables; ``leakage_estimate`` returns
a plug-in estimate from samples with its bias bound, as the pair
(mi_bits, bias_bound_bits).  All entropies are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .constellation import mixed_radix_index
from .errors import ParameterError, SizeCapError
from .keyvalue import key_values, parse_value, read_text

JOINT_TABLE_CAP = 10_000_000
PMF_TOL = 1e-12
MIN_LEAKAGE_SAMPLES = 1000  # fewest samples a plug-in leakage estimate takes


def _check_pmf(arr: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"{name} has non-finite entries")
    if np.any(arr < 0):
        raise ParameterError(f"{name} has negative entries")
    sums = arr.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > PMF_TOL):
        raise ParameterError(f"{name} rows must sum to 1 within {PMF_TOL}")


@dataclass(frozen=True, eq=False)  # ndarray fields: identity equality
class DiscreteMACSpec:
    """Finite-alphabet K-user wiretap MAC with auxiliary inputs U_k.

    The joint law is fixed to prod_k P(u_k) P(x_k|u_k) times the channel
    P(y,z|x_1..x_K).  ``p_yz_given_x`` has shape (*x_sizes, y, z) and each
    ``p_x_given_u[k]`` has shape (|U_k|, |X_k|).
    """

    K: int
    p_u: tuple[np.ndarray, ...]
    p_x_given_u: tuple[np.ndarray, ...]
    p_yz_given_x: np.ndarray

    def __post_init__(self):
        if self.K < 1:
            raise ParameterError(f"K must be >= 1, got {self.K}")
        if len(self.p_u) != self.K or len(self.p_x_given_u) != self.K:
            raise ParameterError("need one P(u_k) and one P(x_k|u_k) per user")
        p_u = tuple(np.asarray(p, dtype=float) for p in self.p_u)
        p_xu = tuple(np.asarray(p, dtype=float) for p in self.p_x_given_u)
        chan = np.asarray(self.p_yz_given_x, dtype=float)
        object.__setattr__(self, "p_u", p_u)
        object.__setattr__(self, "p_x_given_u", p_xu)
        object.__setattr__(self, "p_yz_given_x", chan)
        if chan.ndim != self.K + 2:
            raise ParameterError(
                f"channel table must have {self.K + 2} axes (x_1..x_K, y, z)"
            )
        for k in range(self.K):
            _check_pmf(p_u[k], f"P(u_{k + 1})")
            if p_xu[k].ndim != 2 or p_xu[k].shape[0] != p_u[k].size:
                raise ParameterError(f"P(x_{k + 1}|u_{k + 1}) shape mismatch")
            _check_pmf(p_xu[k], f"P(x_{k + 1}|u_{k + 1})")
            if chan.shape[k] != p_xu[k].shape[1]:
                raise ParameterError(f"channel axis {k} does not match |X_{k + 1}|")
        flat = chan.reshape(-1, chan.shape[-2] * chan.shape[-1])
        _check_pmf(flat, "P(y,z|x)")
        if chan.size > JOINT_TABLE_CAP:
            raise SizeCapError(f"channel table has {chan.size} entries, cap {JOINT_TABLE_CAP}")

    def joint_uyz(self) -> np.ndarray:
        """Joint P(u_1..u_K, y, z) with X marginalized out."""
        size = math.prod(p.size for p in self.p_u) * math.prod(self.p_yz_given_x.shape[-2:])
        if size > JOINT_TABLE_CAP:
            raise SizeCapError(f"joint table needs {size} entries, cap {JOINT_TABLE_CAP}")
        t = self.p_yz_given_x
        for k in range(self.K):
            # contract x_k (axis k of the running table) against P(x_k|u_k)
            t = np.tensordot(self.p_x_given_u[k], t, axes=(1, k))
        # axes are now (u_K, ..., u_1, y, z); restore user order
        perm = tuple(range(self.K - 1, -1, -1)) + (self.K, self.K + 1)
        t = np.transpose(t, perm)
        weight = self.p_u[0]
        for k in range(1, self.K):
            weight = np.multiply.outer(weight, self.p_u[k])
        return t * weight[..., None, None]


@dataclass(frozen=True)
class RateRegion:
    """Subset constraints plus the secrecy sum bound, all in bits.

    ``constraints`` lists (mask, bound) for every nonempty proper subset S
    of {1..K} as its bitmask (bit k-1 <=> user k), in mask order.
    """

    K: int
    constraints: tuple[tuple[int, float], ...]
    sum_bound: float


def entropy_bits(p: np.ndarray) -> float:
    """Shannon entropy of a pmf in bits, with 0 log 0 = 0."""
    p = np.asarray(p, dtype=float).ravel()
    nz = p[p > 0]
    return float(-np.sum(nz * np.log2(nz)))


def mutual_information(joint: np.ndarray) -> float:
    """I(A;B) in bits from a 2-way joint pmf table, checked as one pmf by
    ``_check_pmf``: a NaN or inf entry is refused, not read as 0 bits."""
    joint = np.asarray(joint, dtype=float)
    if joint.ndim != 2:
        raise ParameterError(f"joint table must be 2-D, got {joint.ndim}-D")
    _check_pmf(joint.ravel(), "joint table")
    val = entropy_bits(joint.sum(axis=1)) + entropy_bits(joint.sum(axis=0)) - entropy_bits(joint)
    return max(0.0, val)


def achievable_region(spec: DiscreteMACSpec) -> RateRegion:
    """Rate region of the wiretap MAC for the given input distributions."""
    joint = spec.joint_uyz()
    K = spec.K
    joint_uy = joint.sum(axis=-1)  # (u_1..u_K, y)
    joint_uz = joint.sum(axis=-2)  # (u_1..u_K, z)

    h_u_all = entropy_bits(joint_uy.sum(axis=-1))
    h_uy_all = entropy_bits(joint_uy)

    constraints = []
    for mask in range(1, 2**K - 1):
        # I(U_S; Y | U_C) = H(U) + H(U_C, Y) - H(U_C) - H(U, Y)
        s_axes = tuple(k for k in range(K) if (mask >> k) & 1)
        h_c = entropy_bits(joint_uy.sum(axis=s_axes + (-1,)))
        h_cy = entropy_bits(joint_uy.sum(axis=s_axes))
        constraints.append((mask, max(0.0, h_u_all + h_cy - h_c - h_uy_all)))

    i_uy = h_u_all + entropy_bits(joint_uy.sum(axis=tuple(range(K)))) - h_uy_all
    i_uz = (
        h_u_all
        + entropy_bits(joint_uz.sum(axis=tuple(range(K))))
        - entropy_bits(joint_uz)
    )
    return RateRegion(
        K=K, constraints=tuple(constraints), sum_bound=max(0.0, i_uy - i_uz)
    )


def composition_counts(K: int, Q: int) -> list[int]:
    """Exact counts of the tuples in [-Q, Q]^K by their sum, from -KQ to KQ.

    Each added user convolves the counts with the (2Q+1)-wide box, taken
    as a window sum: a shifted difference of prefix sums over Python ints,
    so no count is ever rounded.  The K window sums over the 2KQ+1 support
    are capped at ``JOINT_TABLE_CAP`` cells together.
    """
    if K < 1:
        raise ParameterError(f"K must be >= 1, got {K}")
    if Q < 0:
        raise ParameterError(f"Q must be >= 0, got {Q}")
    support = 2 * K * Q + 1
    if K * support > JOINT_TABLE_CAP:
        raise SizeCapError(
            f"composition counts need K * (2KQ+1) = {K * support} cells, cap {JOINT_TABLE_CAP}"
        )
    width = 2 * Q + 1
    counts = np.ones(width, dtype=object)
    pad = np.zeros(width, dtype=object)
    for _ in range(K - 1):
        prefix = np.cumsum(np.concatenate((pad, counts, pad[1:])))
        counts = prefix[width:] - prefix[:-width]
    return counts.tolist()


def sum_entropy(K: int, Q: int) -> float:
    """Entropy in bits of the sum of K i.i.d. uniforms on [-Q, Q].

    The composition counts are exact, but each c log2 c term is rounded,
    summed in float and subtracted from log2 T.  Against 60-digit mpmath
    over the 53 (K, Q) of the ``entropy`` commands in
    perfbench/reference/analysis.json (K <= 12, Q <= 77) the error is
    within 96 ulps (median 9.1, worst 86.7 at K = 12, Q = 72); it grows
    with the number of terms.
    """
    counts = composition_counts(K, Q)
    total = (2 * Q + 1) ** K
    if total.bit_length() <= 1000:
        weighted = sum(c * math.log2(c) for c in counts if c > 1) / total
    else:  # c log2 c would pass the float range: weight each count by its share
        weighted = sum(c / total * math.log2(c) for c in counts if c > 1)
    return math.log2(total) - weighted


def sum_rate_lower_bound(K: int, Q: int, P_e: float) -> float:
    """Secrecy sum-rate lower bound in bits per channel use.

    max(0, K log2(2Q+1) - log2(2KQ+1) - 1 - P_e K log2(2Q+1)); the Fano
    penalty reads the joint input alphabet of size (2Q+1)^K.
    """
    if K < 1:
        raise ParameterError(f"K must be >= 1, got {K}")
    if Q < 1:
        raise ParameterError(f"Q must be >= 1, got {Q}")
    if not 0 <= P_e <= 1:
        raise ParameterError(f"P_e must be in [0,1], got {P_e}")
    per_user = math.log2(2 * Q + 1)
    raw = K * per_user - math.log2(2 * K * Q + 1) - 1.0 - P_e * K * per_user
    return max(0.0, raw)


def sdof_limit(K: int, epsilon: float) -> float:
    """Secure degrees-of-freedom limit (K-1)(1-eps)/(K+eps)."""
    if K < 2:
        raise ParameterError(f"K must be >= 2, got {K}")
    if not 0 <= epsilon < 1:
        raise ParameterError(f"epsilon must be in [0,1), got {epsilon}")
    return (K - 1) * (1.0 - epsilon) / (K + epsilon)


class SlopeFit(NamedTuple):
    slope: float
    intercept: float
    residual: float  # RMS deviation from the fitted line


def sdof_fit(points: Sequence[tuple[float, float]]) -> SlopeFit:
    """Least-squares slope of sum rate against (1/2) log2 P."""
    if len(points) < 2:
        raise ParameterError(f"need at least 2 points, got {len(points)}")
    P = np.array([p for p, _ in points], dtype=float)
    R = np.array([r for _, r in points], dtype=float)
    if np.any(P <= 1):
        raise ParameterError("every P must exceed 1")
    if np.unique(P).size < 2:
        raise ParameterError("degenerate fit: all P values identical")
    x = 0.5 * np.log2(P)
    design = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, R, rcond=None)
    resid = R - (slope * x + intercept)
    return SlopeFit(
        slope=float(slope),
        intercept=float(intercept),
        residual=float(np.sqrt(np.mean(resid**2))),
    )


def leakage_estimate(
    x_tuples: np.ndarray, z: np.ndarray, bin_width: float, Q: int
) -> tuple[float, float]:
    """(mi_bits, bias_bound_bits): the plug-in mutual information between
    input tuples and quantized z, and its first-order bias bound
    (occupied joint cells - 1) / (2 n ln 2).

    ``x_tuples`` is (n, K) signed integers in [-Q, Q]^K (others are
    refused), ``z`` is (n,) reals quantized to bins of the given width.
    One sorted int64 key per sample, tuple code * bin slots + bin slot,
    gives the joint counts (its runs) and the tuple counts (runs summed
    per code).  Bins spanning n or more slots are ranked first; where
    (2Q+1)^K * slots would reach 2^63, the tuples are ranked as whole rows
    in place of their codes.  The estimator carries no bias correction;
    the bound stands in for one.
    """
    x_tuples = np.asarray(x_tuples)
    z = np.asarray(z, dtype=float)
    if x_tuples.ndim != 2 or z.ndim != 1 or x_tuples.shape[0] != z.size:
        raise ParameterError("need (n, K) tuples aligned with n observations")
    n, K = x_tuples.shape
    if n < MIN_LEAKAGE_SAMPLES:
        raise ParameterError(f"need at least {MIN_LEAKAGE_SAMPLES} samples, got {n}")
    if not bin_width > 0:
        raise ParameterError(f"bin width must be positive, got {bin_width}")

    with np.errstate(over="ignore"):
        cells = np.floor(z / bin_width)
    if not np.all(np.abs(cells) < 2.0**63):  # NaN and inf fail too
        raise ParameterError(
            f"bin index z / bin_width leaves the int64 range (bin width {bin_width})"
        )
    bins = cells.astype(np.int64)

    lo, hi = int(bins.min()), int(bins.max())
    if hi - lo < n:
        slots, n_slots = bins - lo, hi - lo + 1
    else:  # a bincount over the span would dwarf the samples: rank the bins
        _, slots = np.unique(bins, return_inverse=True)
        n_slots = int(slots.max()) + 1
    if (2 * Q + 1) ** K * n_slots < 2**63:
        codes = mixed_radix_index(x_tuples, K, Q)  # refuses a float or a tuple outside [-Q, Q]
    else:  # the key would pass int64: rank whole rows, which keeps code order
        if x_tuples.dtype.kind != "i" or not -Q <= int(x_tuples.min()) <= int(x_tuples.max()) <= Q:
            raise ParameterError(f"tuples must be signed integers in the alphabet [-{Q}, {Q}]")
        _, codes = np.unique(x_tuples, axis=0, return_inverse=True)
    key = codes * n_slots + slots
    key.sort()
    runs = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    joint_counts, run_codes = np.diff(runs, append=n), key[runs] // n_slots
    tuple_runs = np.flatnonzero(np.r_[True, run_codes[1:] != run_codes[:-1]])
    mi = max(
        0.0,
        entropy_bits(np.add.reduceat(joint_counts, tuple_runs) / n)
        + entropy_bits(np.bincount(slots) / n)  # empty bins add no entropy
        - entropy_bits(joint_counts / n),
    )
    return mi, (joint_counts.size - 1) / (2.0 * n * math.log(2.0))


def _positive_int(tok: str) -> int:
    n = int(tok)
    if n < 1:
        raise ValueError(f"need an integer >= 1, got {n}")
    return n


def load_mac_spec(path: str) -> DiscreteMACSpec:
    """Read a DiscreteMACSpec from a key = value text file.

    Required keys: k, u_sizes, x_sizes, y_size, z_size, p_u_<k>,
    p_x_given_u_<k> (row-major over (u_k, x_k)) and p_yz_given_x
    (row-major over (x_1, ..., x_K, y, z)).  Values are separated by
    whitespace.  '#' starts a comment.
    """
    entries = key_values(read_text(path), path)

    def take(key: str, count: int, parse=float) -> list:
        """The ``count`` values of ``key``."""
        if key not in entries:
            raise ParameterError(f"{path}: missing required key {key!r}")
        lineno, text = entries.pop(key)
        vals = parse_value(path, key, lineno, lambda t: [parse(v) for v in t.split()], text)
        if len(vals) != count:
            raise ParameterError(f"{path}:{lineno}: {key!r} needs {count} values, got {len(vals)}")
        return vals

    (K,) = take("k", 1, _positive_int)
    u_sizes = take("u_sizes", K, _positive_int)
    x_sizes = take("x_sizes", K, _positive_int)
    (y_size,) = take("y_size", 1, _positive_int)
    (z_size,) = take("z_size", 1, _positive_int)
    p_u = tuple(np.array(take(f"p_u_{k + 1}", u_sizes[k])) for k in range(K))
    p_xu = tuple(
        np.reshape(take(f"p_x_given_u_{k + 1}", u_sizes[k] * x_sizes[k]), (u_sizes[k], x_sizes[k]))
        for k in range(K)
    )
    shape = (*x_sizes, y_size, z_size)
    chan = np.reshape(take("p_yz_given_x", math.prod(shape)), shape)
    if entries:
        raise ParameterError(f"{path}: unknown keys {sorted(entries)}")
    return DiscreteMACSpec(K=K, p_u=p_u, p_x_given_u=p_xu, p_yz_given_x=chan)
