"""Brute-force Diophantine approximation tools.

The quality of a gain tuple g = (g_1, ..., g_m) is measured by how small
|p + q_1 g_1 + ... + q_m g_m| can get over integer q with |q|_inf <= N.
Exhaustive search, with no lattice reduction, returns the minimum alone
and no witness (q, p); the tests check it against a brute-force search.
The Khintchine-Groshev profile normalizes those minima by N^(m+eps) to
expose the empirical constant c_hat that lower bounds the linear form
for almost every real tuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constellation import tuple_sums
from .errors import ParameterError, SizeCapError

SEARCH_CAP = 100_000_000
_BLOCK_CELLS = 1 << 20  # floats per evaluated block of q_j rows


@dataclass(frozen=True)
class KGProfile:
    """Normalized linear-form minima m(N) * N^(m+eps) over a ladder of N."""

    rows: tuple[tuple[int, float, float], ...]  # (N, m(N), m(N) * N^(m+eps))
    c_hat: float


def min_linear_form(g: Sequence[float], N: int) -> float:
    """Exhaustive minimum of |p + q . g| over integer p and nonzero |q|_inf <= N."""
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

    best = math.inf
    # q and -q give the same value, so only canonical q are searched: in
    # region j, q_j > 0 is the first nonzero coordinate and the rest are free.
    for j in range(m):
        with np.errstate(over="ignore", invalid="ignore"):  # overflowed rows are skipped below
            inner = tuple_sums(g[j + 1 :], N)
        rows = max(1, _BLOCK_CELLS // inner.size)
        for lo in range(1, N + 1, rows):
            qs = np.arange(lo, min(lo + rows, N + 1))
            with np.errstate(over="ignore", invalid="ignore"):
                s = (qs * g[j])[:, None] + inner
                vals = np.abs(s - np.rint(s))
            v = float(vals.min())
            if math.isnan(v):  # a row with an overflowed s is skipped whole
                vals[np.isnan(vals).any(axis=1)] = math.inf
                v = float(vals.min())
            best = min(best, v)
    return best


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
        m_val = min_linear_form(g, N)
        try:
            scale = float(N) ** exponent
        except OverflowError:
            raise ParameterError(f"N^(m+eps) = {N}^{exponent} overflows float64") from None
        rows.append((N, m_val, m_val * scale))
    return KGProfile(rows=tuple(rows), c_hat=min(r[2] for r in rows))
