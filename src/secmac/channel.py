"""Scalar Gaussian multiple-access channel with an eavesdropper.

K single-antenna users share one real channel toward the intended
receiver (gains h_k) while an eavesdropper listens through its own gains
h_{k,e}.  All gains are fixed and known everywhere.  ``transmit``
simulates one receiver: the sum of its gains times the inputs plus
Gaussian noise of a given variance.  The eavesdropper's observation is
the same call with h_e and a seed of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ParameterError
from .rng import stream

Real = float | Fraction
GAIN_RANGE = (0.5, 2.0)  # sampled gains are uniform on this interval


@dataclass(frozen=True)
class ChannelGains:
    """Main-receiver and eavesdropper gains for K users, all finite, h_e nonzero."""

    h: tuple[float, ...]
    h_e: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "h", tuple(float(x) for x in self.h))
        object.__setattr__(self, "h_e", tuple(float(x) for x in self.h_e))
        if len(self.h) != len(self.h_e):
            raise ParameterError(
                f"gain vectors differ in length: {len(self.h)} vs {len(self.h_e)}"
            )
        if len(self.h) < 1:
            raise ParameterError("at least one user required")
        for name, gains in (("h", self.h), ("h_e", self.h_e)):
            if not all(math.isfinite(x) for x in gains):
                raise ParameterError(f"gains {name} must be finite, got {gains}")
        for k, g in enumerate(self.h_e):
            if g == 0.0:
                raise ParameterError(f"eavesdropper gain h_e[{k}] is zero")

    @property
    def K(self) -> int:
        return len(self.h)


@dataclass(frozen=True)
class NormalizedGains:
    """Gain ratios g_k = (h_k/h_{k,e}) / (h_K/h_{K,e}), with g_K = 1.

    ``scale`` is the last ratio h_K/h_{K,e} that was divided out, so the
    original ratios are recoverable as scale * g.  Entries may be exact
    Fractions when the caller works over the rationals.
    """

    g: tuple[Real, ...]
    scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "g", tuple(self.g))
        if len(self.g) < 1:
            raise ParameterError("empty gain vector")
        if self.g[-1] != 1:
            raise ParameterError(f"last normalized gain must be 1, got {self.g[-1]}")
        floats = [x for x in self.g if not isinstance(x, (Fraction, int))] + [self.scale]
        if not all(math.isfinite(x) for x in floats):
            raise ParameterError(f"gains must be finite, got {self.g} with scale {self.scale}")

    @property
    def K(self) -> int:
        return len(self.g)

    def as_floats(self) -> np.ndarray:
        return np.array([float(x) for x in self.g], dtype=float)

    @property
    def exact(self) -> bool:
        """True when every ratio is stored as an exact rational."""
        return all(isinstance(x, (Fraction, int)) for x in self.g)


def normalize_gains(gains: ChannelGains) -> NormalizedGains:
    """Reduce the channel to ratio form with the last ratio equal to 1.

    Raises ParameterError if the last ratio h[K]/h_e[K] is zero, since it
    is divided out: h[K] is zero, or the quotient underflows.
    """
    ratios = [hk / hek for hk, hek in zip(gains.h, gains.h_e)]
    scale = ratios[-1]
    if scale == 0.0:
        raise ParameterError(f"last gain ratio h[{gains.K - 1}]/h_e[{gains.K - 1}] is zero")
    g = tuple(r / scale for r in ratios[:-1]) + (1.0,)
    return NormalizedGains(g=g, scale=scale)


def sample_gains(seed: int, K: int) -> ChannelGains:
    """Draw 2K i.i.d. uniform gains on ``GAIN_RANGE``.

    Continuous sampling makes the ratio set rationally independent with
    probability one.  Deterministic for a fixed seed.
    """
    if K < 2:
        raise ParameterError(f"K must be >= 2, got {K}")
    rng = stream(seed, "gains")
    vals = rng.uniform(*GAIN_RANGE, size=2 * K)
    return ChannelGains(h=tuple(vals[:K]), h_e=tuple(vals[K:]))


def effective_power(gains: ChannelGains, P: float) -> float:
    """Effective power min_k h_{k,e}^2 * P.

    The minimum over users is the single value that keeps every per-user
    constraint E[X_k^2] <= P satisfied simultaneously.
    """
    if not 0 < P < math.inf:
        raise ParameterError(f"P must be positive and finite, got {P}")
    return min(he * he for he in gains.h_e) * P


def transmit(
    x: np.ndarray, h, variance: float = 1.0, seed: int | np.random.SeedSequence = 0
) -> np.ndarray:
    """Send K blocks of n symbols to one receiver with gains ``h``.

    ``x`` has shape (K, n); the result is y_i = sum_k h[k] x[k,i] plus
    Gaussian noise of the given ``variance`` from the (seed,
    "transmit/main") stream, so repeated calls are bit-identical.
    """
    if not 0 <= variance < math.inf:
        raise ParameterError(f"variance must be >= 0 and finite, got {variance}")
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    if x.ndim != 2:
        raise ParameterError(f"x must be (K, n), got shape {x.shape}")
    if x.shape[0] != h.size:
        raise ParameterError(f"x has {x.shape[0]} rows for K={h.size} users")
    n = x.shape[1]
    if n < 1:
        raise ParameterError("block length must be >= 1")
    y = h @ x
    if variance > 0:
        y = y + np.sqrt(variance) * stream(seed, "transmit/main").standard_normal(n)
    return y
