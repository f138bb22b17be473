"""Tail percentile used to report per-command latency."""

from __future__ import annotations

import math

MIN_BEYOND = 10


def tail_percentile(values, q: float) -> float:
    """Nearest-rank q-quantile, refusing one with fewer than ``MIN_BEYOND``
    samples above it (so p90 needs at least 100 samples)."""
    xs = sorted(values)
    rank = math.ceil(q * len(xs))
    if not xs or rank < 1 or len(xs) - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {len(xs)} samples has {len(xs) - rank} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return xs[rank - 1]
