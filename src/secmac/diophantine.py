"""Brute-force Diophantine approximation tools.

The quality of a gain tuple g = (g_1, ..., g_m) is measured by how small
|p + q_1 g_1 + ... + q_m g_m| can get over integer q with |q|_inf <= N.
Exhaustive search keeps every result exact and checkable; no lattice
reduction is used.  The Khintchine-Groshev profile normalizes those
minima by N^(m+eps) to expose the empirical constant c_hat that lower
bounds the linear form for almost every real tuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .constellation import mixed_radix_digits, tuple_sums
from .errors import ParameterError, SizeCapError

SEARCH_CAP = 100_000_000
_BLOCK_CELLS = 1 << 20  # floats per evaluated block of q_j rows


@dataclass(frozen=True)
class LinearFormResult:
    """Minimum |p + q . g| over nonzero |q|_inf <= N with optimal p.

    q is canonical: its first nonzero entry is positive, and among exact
    ties the lexicographically smallest q is reported.  p is the nearest
    integer to -q . g (ties to even).
    """

    value: float
    p: int
    q: tuple[int, ...]
    N: int


class Relation(NamedTuple):
    p: int
    q: tuple[int, ...]


@dataclass(frozen=True)
class KGProfile:
    """Normalized linear-form minima m(N) * N^(m+eps) over a ladder of N."""

    epsilon: float
    rows: tuple[tuple[int, float, float], ...]  # (N, m(N), m(N) * N^(m+eps))
    c_hat: float


def min_linear_form(g: Sequence[float], N: int) -> LinearFormResult:
    """Exhaustive minimum of |p + q . g| over canonical nonzero q, |q|_inf <= N."""
    g = [float(x) for x in g]
    m = len(g)
    if m < 1:
        raise ParameterError("empty gain tuple")
    if not all(math.isfinite(x) for x in g):
        raise ParameterError(f"gains must be finite, got {tuple(g)}")
    if N < 1:
        raise ParameterError(f"N must be >= 1, got {N}")
    space = (2 * N + 1) ** m
    if space > SEARCH_CAP:
        raise SizeCapError(f"search space {space} exceeds cap {SEARCH_CAP}")

    best_val = math.inf
    best_q: tuple[int, ...] | None = None
    best_s = 0.0

    # Canonical region: q_j > 0 for the first nonzero coordinate j, the
    # coordinates before it zero and the rest free.  A block holds the rows
    # of consecutive q_j; row-major order over (q_j, tail index) is
    # lexicographic order of q, so argmin's first hit is the block's
    # smallest tied q.
    for j in range(m):
        tail = g[j + 1 :]
        with np.errstate(over="ignore", invalid="ignore"):  # overflowed rows are skipped below
            inner = tuple_sums(tail, N)
        rows = max(1, _BLOCK_CELLS // inner.size)
        for lo in range(1, N + 1, rows):
            qs = np.arange(lo, min(lo + rows, N + 1))
            with np.errstate(over="ignore", invalid="ignore"):
                s = (qs * g[j])[:, None] + inner
                vals = np.abs(s - np.rint(s))
            k = int(vals.argmin())
            if math.isnan(vals.flat[k]):  # a row with an overflowed s is skipped whole
                vals[np.isnan(vals).any(axis=1)] = math.inf
                k = int(vals.argmin())
            v = float(vals.flat[k])
            if v > best_val or v == math.inf:
                continue
            row, idx = divmod(k, inner.size)
            q = (0,) * j + (int(qs[row]),) + tuple(mixed_radix_digits(idx, len(tail), N).tolist())
            if v < best_val or q < best_q:
                best_val = v
                best_q = q
                best_s = float(s[row, idx])

    assert best_q is not None
    p = int(np.rint(-best_s))
    return LinearFormResult(value=best_val, p=p, q=best_q, N=N)


def kg_profile(g: Sequence[float], epsilon: float, N_list: Sequence[int]) -> KGProfile:
    """Profile m(N) and m(N) * N^(len(g)+eps) over an increasing N ladder."""
    N_list = list(N_list)
    if not N_list:
        raise ParameterError("empty N list")
    if any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise ParameterError(f"N list must be strictly increasing, got {N_list}")
    if not math.isfinite(epsilon):
        raise ParameterError(f"epsilon must be finite, got {epsilon}")
    exponent = len(g) + epsilon
    rows = []
    for N in N_list:
        m_val = min_linear_form(g, N).value
        try:
            scale = float(N) ** exponent
        except OverflowError:
            raise ParameterError(f"N^(m+eps) = {N}^{exponent} overflows float64") from None
        rows.append((N, m_val, m_val * scale))
    return KGProfile(
        epsilon=epsilon, rows=tuple(rows), c_hat=min(r[2] for r in rows)
    )


def find_integer_relation(g: Sequence[Fraction]) -> Relation:
    """Integer relation p + q . g = 0 for exact rational inputs.

    Clears the denominator of the first coordinate: for g_1 = a/b in
    lowest terms the relation is q = (b, 0, ..., 0), p = -a.  Nonempty
    rational input always has one.
    """
    if len(g) == 0:
        raise ParameterError("empty input: no relation to find")
    exact = []
    for i, x in enumerate(g):
        if not isinstance(x, (Fraction, int)):
            raise ParameterError(f"entry {i} is {type(x).__name__}, need exact rationals")
        exact.append(Fraction(x))
    first = exact[0]
    q = (first.denominator,) + (0,) * (len(exact) - 1)
    return Relation(p=-first.numerator, q=q)

