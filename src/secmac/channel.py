"""Scalar Gaussian multiple-access channel with an eavesdropper.

K single-antenna users share one real channel toward the intended
receiver (gains h_k) while an eavesdropper listens through its own gains
h_{k,e}.  All gains are fixed and known everywhere.  The Monte Carlo
commands form each receiver's noiseless values themselves, and
``transmit`` adds its Gaussian noise of a given variance, conditioned on
leaving a given multiple of its standard deviation when asked to.
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
# Tail t from which Robert's proposal costs less per accepted draw than
# rejecting plain normals: on Philox streams the two crossed between t = 0.45
# (5,000 draws) and 0.6 (30,000 draws).
TAIL_SWITCH = 0.55


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


def normalize_ratios(ratios: list[Real]) -> NormalizedGains:
    """Divide gain ratios by the last one, so that the last becomes 1.

    The division is exact when every ratio is a Fraction or an int, and
    in floats otherwise.  Raises ParameterError when the last ratio is
    zero or a ratio lies outside the float64 range.
    """
    last = ratios[-1]
    try:
        if all(isinstance(r, (Fraction, int)) for r in ratios):
            g = tuple(Fraction(r) / Fraction(last) for r in ratios)
        else:
            g = tuple(float(r) / float(last) for r in ratios)
        scale = float(last)
    except (OverflowError, ZeroDivisionError):  # past the range, or 0 as a float
        raise ParameterError("a gain lies outside the float64 range or the last is zero") from None
    return NormalizedGains(g=g, scale=scale)


def normalize_gains(gains: ChannelGains) -> NormalizedGains:
    """Reduce the channel to ratio form with the last ratio equal to 1.

    Raises ParameterError if the last ratio h[K]/h_e[K] is zero, since it
    is divided out: h[K] is zero, or the quotient underflows.
    """
    ratios = [hk / hek for hk, hek in zip(gains.h, gains.h_e)]
    if ratios[-1] == 0.0:
        raise ParameterError(f"last gain ratio h[{gains.K - 1}]/h_e[{gains.K - 1}] is zero")
    return normalize_ratios(ratios)


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


def normal_tail(x: float) -> float:
    """Phi_bar(x) = P(Z > x) for a standard normal Z; it underflows to 0 near x = 38.5."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def tail_normals(rng: np.random.Generator, size: int, t: float) -> np.ndarray:
    """``size`` standard normals conditioned on |Z| > t >= 0; at t = 0 plain draws.

    Below ``TAIL_SWITCH`` normals are drawn and those in [-t, t] rejected.
    From it on, |Z| is Robert's (1995) proposal x = t + E/lam, E exponential
    and lam = (t + sqrt(t^2 + 4))/2, accepted when |w| <= exp(-(x - lam)^2/2)
    for a uniform w on [-1, 1), whose sign Z takes.  Each round draws
    (missing + 3 sqrt(missing)) / rate candidates, the rate being 2 Phi_bar(t)
    for rejection and, for Robert's, its lower bound exp(-(lam - t)^2/2)
    (lam Phi_bar(t) > phi(t), Birnbaum 1942).
    """
    if t == 0:
        return rng.standard_normal(size)
    robert = t >= TAIL_SWITCH
    lam = (t + math.hypot(t, 2.0)) / 2.0
    accept = math.exp(-0.5 * (lam - t) ** 2) if robert else 2.0 * normal_tail(t)
    parts, need = [np.empty(0)], size
    while need > 0:
        m = math.ceil((need + 3.0 * math.sqrt(need)) / accept)
        if robert:
            x = t + rng.standard_exponential(m) / lam
            w = rng.uniform(-1.0, 1.0, m)
            z = np.copysign(x, w)[np.abs(w) <= np.exp(-0.5 * (x - lam) ** 2)]
        else:
            z = rng.standard_normal(m)
            z = z[np.abs(z) > t]
        parts.append(z[:need])
        need -= parts[-1].size
    return np.concatenate(parts)


def transmit(
    y: np.ndarray, variance: float, seed: int | np.random.SeedSequence, tail: float = 0.0
) -> np.ndarray:
    """Noiseless received values ``y`` plus Gaussian noise of the given
    ``variance`` from the (seed, "transmit/main") stream, so repeated calls
    are bit-identical; at variance 0 no stream is derived.  The noise is
    sigma*Z with Z conditioned on |Z| > ``tail`` (``tail_normals``); the
    default 0 draws plain normals.  A tail past about 38.5, where
    P(|Z| > tail) underflows to 0, is refused (far past it, t + E/lam
    rounds to t)."""
    if not 0 <= variance < math.inf:
        raise ParameterError(f"variance must be >= 0 and finite, got {variance}")
    if not (tail >= 0 and normal_tail(tail) > 0):
        raise ParameterError(f"noise tail must be >= 0 with P(Z > tail) > 0, got {tail}")
    if variance > 0:
        z = tail_normals(stream(seed, "transmit/main"), np.size(y), tail)
        y = y + np.sqrt(variance) * z.reshape(np.shape(y))
    return y
