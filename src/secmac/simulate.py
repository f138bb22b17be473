"""Seeded Monte Carlo engine: power sweeps, block trials, leakage runs.

Every random draw is keyed by (master seed, purpose, grid index, batch
index), so reports are bit-identical across runs and independent of any
split of the trials over workers.  Sweep, block and leakage share one
batch generator, ``_batches``: a batch holds ``BATCH_USES`` channel uses
(a sweep trial or leakage sample is one, a block trial n) and has one
input stream and one noise seed.  From the input stream block draws its
messages, leakage its tuples and the sweep its far-trial count and sorted
point positions (of the trials whose noise can leave ``_far_tail``'s safe
radius).  All three then send a noiseless received value through
``transmit``, which adds the batch's noise.  With inputs
x_k = A*v_k/h_{k,e}, the eavesdropper receives the aligned sum
A*sum_k v_k, and the intended receiver, with the sign of the last ratio s
divided out, the point A*|s|*sum_k g_k v_k of the received constellation:
the sweep sends its drawn point and tests the sample with
``codec.nearer``, block sends each channel use's point and hard-decodes
the samples, and leakage sends each tuple's aligned sum, formed exactly,
and bins the samples.  Each report's ``.meta`` holds the run's
``SimConfig`` with its gains resolved, under the config-file keys, so
those lines rerun it, and names its ``stream_layout``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import ClassVar, NamedTuple

import numpy as np

from .channel import (
    ChannelGains,
    effective_power,
    normal_tail,
    normalize_gains,
    sample_gains,
    transmit,
)
from .codec import Codebook, build_codebook, encode, hard_decode, nearer
from .constellation import (
    ENUMERATION_CAP,
    ReceivedConstellation,
    mixed_radix_digits,
    pe_upper_bound,
    received_constellation,
    select_params,
)
from .errors import ParameterError, SizeCapError
from .rng import stream, substream
from .secrecy import (
    JOINT_TABLE_CAP,
    MIN_LEAKAGE_SAMPLES,
    SlopeFit,
    leakage_estimate,
    sdof_fit,
    sum_entropy,
    sum_rate_lower_bound,
)

BATCH_USES = 65_536  # channel uses per batch (a block trial is n), part of the stream layout
WILSON_Z = 1.959963984540054  # two-sided 95%
# Version of each command's random stream layout, recorded in .meta; it
# changes whenever a stream key, a draw order or a batch shape changes.
STREAM_LAYOUT = {"sweep": 4, "block": 5, "leakage": 3}
TABLE_CAP = 65_536  # max codebook sequences per user in block runs
TRIAL_CAP = 10**8  # max trials of a sweep (over all grid points) or a block run


def _batches(seed: int, command: str, total: int, *grid, uses: int = 1):
    """(size, input stream, noise seed) of each batch of ``total`` trials of
    ``uses`` channel uses each: batch bi of max(1, ``BATCH_USES`` // uses)
    trials draws its inputs from the (seed, f"{command}/input", *grid, bi)
    stream and gives the (seed, f"{command}/noise", *grid, bi) substream."""
    size = max(1, BATCH_USES // uses)
    for bi, b0 in enumerate(range(0, total, size)):
        draw = stream(seed, f"{command}/input", *grid, bi)
        yield min(size, total - b0), draw, substream(seed, f"{command}/noise", *grid, bi)


def wilson_interval(errors: int, trials: int, z: float = WILSON_Z) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (valid at 0 counts)."""
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if not 0 < z < math.inf:
        raise ParameterError(f"z must be positive and finite, got {z}")
    if not 0 <= errors <= trials:
        raise ParameterError(f"errors {errors} outside [0, {trials}]")
    p = errors / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    low = max(0.0, center - half) if errors else 0.0  # exact ends, which rounding misses
    return low, (min(1.0, center + half) if errors < trials else 1.0)


@dataclass(frozen=True)
class SimConfig:
    """Inputs for one simulation campaign.

    Gains come either from explicit (h, h_e) or from uniform sampling
    (``channel.sample_gains``) seeded by the master seed.
    """

    K: int
    epsilon: float
    P_grid: tuple[float, ...]
    trials: int = 10_000
    n: int = 4
    master_seed: int = 0
    variance: float = 1.0
    h: tuple[float, ...] | None = None
    h_e: tuple[float, ...] | None = None
    bin_width: float | None = None
    leakage_samples: int = 100_000

    def __post_init__(self):
        object.__setattr__(self, "P_grid", tuple(float(p) for p in self.P_grid))
        if self.K < 2:
            raise ParameterError(f"K must be >= 2, got {self.K}")
        if not 0 < self.epsilon < 1:
            raise ParameterError(f"epsilon must be in (0,1), got {self.epsilon}")
        if not self.P_grid:
            raise ParameterError("P grid is empty")
        if not all(0 < p < math.inf for p in self.P_grid):
            raise ParameterError(f"P grid values must be positive and finite, got {self.P_grid}")
        if any(b <= a for a, b in zip(self.P_grid, self.P_grid[1:])):
            raise ParameterError("P grid must be strictly increasing")
        if self.trials < 1:
            raise ParameterError(f"trials must be >= 1, got {self.trials}")
        if self.n < 1:
            raise ParameterError(f"block length must be >= 1, got {self.n}")
        if not 0 <= self.variance < math.inf:
            raise ParameterError(f"variance must be >= 0 and finite, got {self.variance}")
        if self.bin_width is not None and not self.bin_width > 0:  # NaN too; inf is one bin
            raise ParameterError(f"bin width must be positive, got {self.bin_width}")
        if self.master_seed < 0:
            raise ParameterError(f"master_seed must be >= 0, got {self.master_seed}")
        if (self.h is None) != (self.h_e is None):
            raise ParameterError("give both h and h_e, or neither")
        if self.h is not None and (len(self.h) != self.K or len(self.h_e) != self.K):
            raise ParameterError(f"h and h_e must each list {self.K} gains")

    def resolve_gains(self) -> ChannelGains:
        if self.h is not None:
            return ChannelGains(h=tuple(self.h), h_e=tuple(self.h_e))
        return sample_gains(self.master_seed, self.K)


@dataclass(frozen=True)
class GridPoint:
    """The scheme at grid power P: P_tilde = min_k h_{k,e}^2 P and its split
    (Q, A) from ``select_params``; each Monte Carlo report's first columns."""

    P: float
    P_tilde: float
    Q: int
    A: float


@dataclass(frozen=True)
class SweepRow(GridPoint):
    d_min: float
    pe_tail_bound: float
    pe_exp_bound: float
    pe_mc: float
    pe_mc_ci_low: float
    pe_mc_ci_high: float
    r_sum_bound_bits: float
    eta_running: float


def fmt(x) -> str:
    """Lossless CSV cell: 17 significant digits for floats, plain ints
    (a bool as 0 or 1), strings as they are."""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def csv_text(header: str, rows) -> str:
    """A CSV: the header line, then one line of ``fmt`` cells per row."""
    return "\n".join([header] + [",".join(map(fmt, row)) for row in rows]) + "\n"


def _config_keys(cfg: SimConfig) -> dict:
    """A run's config as ``.meta`` keys: each field set, under its name in
    lower case (its config-file key), a tuple comma-joined, values ``fmt``-ed.
    These lines, as a config file, rerun the run."""
    return {
        f.name.lower(): ",".join(map(fmt, v)) if isinstance(v, tuple) else fmt(v)
        for f in fields(cfg)
        if (v := getattr(cfg, f.name)) is not None
    }


class _Report:
    """The CSV writer and ``.meta`` builder of the run reports.

    A report with ``rows`` writes one CSV line per row, any other report
    is its own single row.  The columns are the row's fields in order,
    less ``config`` and ``fit``; those go to ``metadata`` in order (the
    run's config with its gains resolved, then a sweep's fit keys),
    followed by the command's ``stream_layout``.
    """

    command: ClassVar[str]

    def to_csv(self) -> str:
        rows = getattr(self, "rows", (self,))
        cols = [f.name for f in fields(rows[0]) if f.name not in ("config", "fit")]
        return csv_text(",".join(cols), ([getattr(r, c) for c in cols] for r in rows))

    def metadata(self) -> dict:
        fit = getattr(self, "fit", None) or ()  # only a sweep has a fit; a one-point grid has none
        fit_keys = dict(zip(("slope", "intercept", "fit_residual"), map(fmt, fit)))
        return _config_keys(self.config) | fit_keys | {"stream_layout": STREAM_LAYOUT[self.command]}


@dataclass(frozen=True)
class SweepReport(_Report):
    command: ClassVar[str] = "sweep"
    rows: tuple[SweepRow, ...]
    config: SimConfig  # gains resolved
    fit: SlopeFit | None  # None for a one-point grid


def _constellation_gains(cfg: SimConfig, trials: int) -> ChannelGains:
    """The gains of a sweep or block run of ``trials`` trials in all, drawn
    only once the run fits the caps: at most ``TRIAL_CAP`` trials, and a
    smallest constellation within ``ENUMERATION_CAP`` (Q >= 1, so
    M = (2Q+1)^K >= 3^K)."""
    if trials > TRIAL_CAP:
        raise SizeCapError(f"{trials} trials exceed cap {TRIAL_CAP}")
    # 3^K > 2^K >= 2^bit_length > cap, without forming 3^K for a huge K
    if cfg.K >= ENUMERATION_CAP.bit_length() or 3**cfg.K > ENUMERATION_CAP:
        raise SizeCapError(f"K = {cfg.K} users need at least 3^K points, cap is {ENUMERATION_CAP}")
    return cfg.resolve_gains()


def _grid_point(cfg: SimConfig, gains: ChannelGains, P: float) -> GridPoint:
    """The grid point at P, with no constellation built: a caller can check
    its caps on Q first."""
    P_t = effective_power(gains, P)
    return GridPoint(P, P_t, *select_params(P_t, cfg.K, cfg.epsilon))


def _constellation(g, point: GridPoint, *, index: bool = True) -> ReceivedConstellation:
    """The receiver's constellation at ``point``, amplitude A*|s|; only a
    decoding caller needs its ``index``.  Raises ``ParameterError`` unless
    gamma holds, as hard decoding needs each tuple to have its own point."""
    rc = received_constellation(g, point.Q, point.A * abs(g.scale), index=index)
    if not rc.gamma_holds:
        raise ParameterError(f"cannot hard-decode: gamma status is {rc.gamma.value}")
    return rc


# Slack of the safe radius, in ulps of the largest |point| (``_far_tail``).
SAFE_ULPS = 5


def _far_tail(rc: ReceivedConstellation, variance: float) -> tuple[float, float]:
    """(t, p_far): a trial whose noise sigma*Z has |Z| <= t decodes to its own
    point, and p_far = P(|Z| > t) = 2 Phi_bar(t); (inf, 0) without noise.

    t = max(0, d_min/2 - c*u)/sigma with u = spacing(max|point|) and c =
    ``SAFE_ULPS``.  The float error, for |Z| <= t: r = d_min/2 - c*u is
    exact (a multiple of ulp(d_min/2) <= u below d_min/2), so |sigma*Z| <=
    r(1 + 2^-53)^2 < r + 2u; y = x + sigma*Z (|y| <= 2 max|point|) rounds
    by at most u, so |y - x| < d_min/2 - (c - 3)u; and the float gaps that
    give d_min (below 2 max|point|) exceed the true ones by at most u.  So y
    stays (c - 3.5)u inside the midpoints next to x.  ``nearer`` compares
    y - x with x' - y (x' the next point up), which rounding cannot reorder,
    or y - x'' with x - y (x'' the next point down), which y - x'' (below
    3 max|point|) rounds by at most 2u and x - y by u/2, a tie going down:
    the true gap between them, over 2(c - 3.5)u, exceeds 2.5u for c > 4.75.
    """
    if variance == 0:
        return math.inf, 0.0
    u = float(np.spacing(max(-rc.points[0], rc.points[-1])))
    t = max(0.0, rc.d_min / 2 - SAFE_ULPS * u) / math.sqrt(variance)
    return t, 2 * normal_tail(t)


def _sweep_point(cfg: SimConfig, gains: ChannelGains, g, pi: int, P: float) -> SweepRow:
    point = _grid_point(cfg, gains, P)
    rc = _constellation(g, point, index=False)
    tail, expb = pe_upper_bound(rc.d_min / math.sqrt(cfg.variance) if cfg.variance else math.inf)

    # a trial errs iff its noisy sample's nearest point is another; only the
    # Binomial(bs, p_far) trials of a batch whose noise passes t can
    t, p_far = _far_tail(rc, cfg.variance)
    errors, pts = 0, rc.points
    for bs, draw, seed in _batches(cfg.master_seed, "sweep", cfg.trials, pi) if p_far else ():
        pos = draw.integers(0, pts.size, size=draw.binomial(bs, p_far))
        x = pts[pos]  # decoded as the nearer of x and its neighbour on y's side
        y = transmit(x, cfg.variance, seed, t)
        errors += int(np.count_nonzero(nearer(y, pts, pos + (y >= x)) != pos))

    pe_mc = errors / cfg.trials
    ci_low, ci_high = wilson_interval(errors, cfg.trials)
    r_sum = sum_rate_lower_bound(cfg.K, point.Q, pe_mc)
    return SweepRow(
        **vars(point),
        d_min=rc.d_min,
        pe_tail_bound=tail,
        pe_exp_bound=expb,
        pe_mc=pe_mc,
        pe_mc_ci_low=ci_low,
        pe_mc_ci_high=ci_high,
        r_sum_bound_bits=r_sum,
        eta_running=r_sum / (0.5 * math.log2(P)),
    )


def run_symbol_sweep(cfg: SimConfig) -> SweepReport:
    """Per-power-point symbol error simulation against the analytic bounds.

    Each grid point builds its received constellation, counts the trials
    whose noisy point hard decoding would not map back to it, and gives a
    Wilson 95% interval.  A trial whose noise stays within the safe radius
    t*sigma (``_far_tail``) cannot err, so each batch draws only its far
    trials: a Binomial(bs, p_far) count, a uniform sorted position for each
    (the point of a uniform symbol tuple, as gamma must hold) and noise
    conditioned on |Z| > t.  The error count keeps its Binomial(trials, P_e)
    law; without noise, or once p_far underflows, nothing is drawn.  Any
    failing grid point aborts the sweep with the offending P in the message;
    a P <= 1, where eta and the S-DoF fit divide by log2 P, is refused
    before any gain is drawn.
    """
    if cfg.P_grid[0] <= 1:  # the grid is increasing
        raise ParameterError(f"a sweep needs P > 1 for eta_running [grid point P={cfg.P_grid[0]}]")
    gains = _constellation_gains(cfg, cfg.trials * len(cfg.P_grid))
    g = normalize_gains(gains)
    rows = []
    for pi, P in enumerate(cfg.P_grid):
        try:
            rows.append(_sweep_point(cfg, gains, g, pi, P))
        except (ParameterError, SizeCapError) as exc:
            exc.args = (f"{exc.args[0] if exc.args else exc} [grid point P={P}]",)
            raise
    # the grid is strictly increasing and above P = 1, so two points always fit
    fit = sdof_fit([(r.P, r.r_sum_bound_bits) for r in rows]) if len(rows) > 1 else None
    return SweepReport(rows=tuple(rows), config=replace(cfg, h=gains.h, h_e=gains.h_e), fit=fit)


@dataclass(frozen=True)
class BlockReport(_Report, GridPoint):
    command: ClassVar[str] = "block"
    n: int
    B: int
    L: int
    rate_bits_per_user: float
    trials: int
    block_errors: int
    bler: float
    bler_ci_low: float
    bler_ci_high: float
    decode_failures: int
    cross_bin_duplicates: int
    config: SimConfig  # gains resolved


def derive_code_sizes(cfg: SimConfig, Q: int) -> tuple[int, int]:
    """(B, L) for block runs: B = 2^ceil(n R) with the per-user rate R
    taken as an equal split of the secrecy sum-rate bound at P_e = 0,
    and L growing toward the uniform-input budget within the caps.

    Exact-match decoding turns a sequence duplicated across bins into an
    ambiguity, so the table is kept under 1/256 of the sequence space;
    at block lengths where even that is impossible L degenerates to 1.
    B is capped here only at 2^62, the int64 message draw, and n at
    ``JOINT_TABLE_CAP`` (one row alone would pass it), both before any
    power of n is formed; ``_block_setup`` refuses B > TABLE_CAP and
    tables of more than ``JOINT_TABLE_CAP`` cells.
    """
    r_user = sum_rate_lower_bound(cfg.K, Q, 0.0) / cfg.K
    if cfg.n > JOINT_TABLE_CAP or cfg.n * r_user > 62:
        raise SizeCapError(
            f"block length n = {cfg.n} needs over 2^62 bins or {JOINT_TABLE_CAP} table cells"
        )
    B = 2 ** math.ceil(cfg.n * r_user)
    # x < 2^m <= (2Q+1)^m at m = x.bit_length(): larger powers change neither min
    budget_bits = cfg.n * (math.log2(2 * Q + 1) - r_user)
    L = 2 ** min(max(0, math.ceil(budget_bits)), TABLE_CAP.bit_length())
    space = (2 * Q + 1) ** min(cfg.n, (256 * TABLE_CAP).bit_length())
    max_table = min(TABLE_CAP, space // 256)
    L = max(1, min(L, max_table // B))
    return B, L


class _BlockRun(NamedTuple):
    """The fixed parts of a block run: its config with the gains resolved,
    the top grid point and its constellation, each user's coefficient
    A*|s|*g_k in the received point and one codebook per user."""

    cfg: SimConfig
    point: GridPoint
    rc: ReceivedConstellation
    coefs: np.ndarray
    codebooks: tuple[Codebook, ...]


def _block_setup(cfg: SimConfig) -> _BlockRun:
    """Grid point, constellation and codebooks for a block run at the top of
    the power grid.  The code sizes need only Q: their caps are checked
    before any array is built, gamma before any codebook is drawn."""
    gains = _constellation_gains(cfg, cfg.trials)
    point = _grid_point(cfg, gains, cfg.P_grid[-1])
    B, L = derive_code_sizes(cfg, point.Q)
    if B > TABLE_CAP:
        raise SizeCapError(f"codebook needs B = {B} bins per user, cap is {TABLE_CAP}")
    if cfg.K * B * L * cfg.n > JOINT_TABLE_CAP:
        raise SizeCapError(
            f"codebooks need K*B*L*n = {cfg.K * B * L * cfg.n} cells, cap is {JOINT_TABLE_CAP}"
        )
    g = normalize_gains(gains)
    rc = _constellation(g, point)
    codebooks = tuple(
        build_codebook(cfg.n, point.Q, B, L, substream(cfg.master_seed, "block/codebook"), user_k=k)
        for k in range(cfg.K)
    )
    cfg = replace(cfg, h=gains.h, h_e=gains.h_e)
    return _BlockRun(cfg, point, rc, g.as_floats() * (point.A * abs(g.scale)), codebooks)


def _block_batch(run: _BlockRun, msgs: np.ndarray, seed) -> tuple[np.ndarray, np.ndarray]:
    """(error, decode-failure) flags of a batch of (bs, K) messages; the batch
    seed gives the ``encode`` slots and the noise of one transmit of the
    bs*n received points laid out trial-major."""
    K, n = run.cfg.K, run.cfg.n
    v = np.stack([encode(cb, msgs[:, k], seed) for k, cb in enumerate(run.codebooks)], axis=-1)
    y = transmit(v.reshape(-1, K) @ run.coefs, run.cfg.variance, seed)
    dec = hard_decode(y, run.rc).reshape(len(msgs), n, K)
    recovered = np.stack([cb.bin_of(dec[..., k]) for k, cb in enumerate(run.codebooks)], axis=-1)
    return np.any(recovered != msgs, axis=1), np.any(recovered < 0, axis=1)


def run_block_trials(cfg: SimConfig) -> BlockReport:
    """Full encode/transmit/decode pipeline at the top of the power grid.

    A trial errs when any user's recovered bin differs from its message
    (a sequence missing from the table counts as an error too).  A trial
    is n channel uses, so a batch holds max(1, BATCH_USES // n) trials: it
    draws their messages from its input stream (``_batches``) and their
    slots and noise from its seed (``_block_batch``), no stream per trial.
    Every draw is a prefix of the full batch's, so a trial's flags never
    depend on the trial count.
    """
    run = _block_setup(cfg)
    cb0 = run.codebooks[0]
    errors = failures = 0
    for bs, draw, seed in _batches(cfg.master_seed, "block", cfg.trials, uses=cfg.n):
        err, fail = _block_batch(run, draw.integers(0, cb0.B, size=(bs, cfg.K)), seed)
        errors += int(np.count_nonzero(err))
        failures += int(np.count_nonzero(fail))

    ci_low, ci_high = wilson_interval(errors, cfg.trials)
    cross = sum(cb.duplicate_stats() for cb in run.codebooks)
    return BlockReport(
        **vars(run.point),
        n=cfg.n,
        B=cb0.B,
        L=cb0.L,
        rate_bits_per_user=math.log2(cb0.B) / cfg.n,
        trials=cfg.trials,
        block_errors=errors,
        bler=errors / cfg.trials,
        bler_ci_low=ci_low,
        bler_ci_high=ci_high,
        decode_failures=failures,
        cross_bin_duplicates=cross,
        config=run.cfg,
    )


@dataclass(frozen=True)
class LeakageRunReport(_Report, GridPoint):
    """A leakage run's grid point, its estimate and the exact entropies of
    uniform inputs on [-Q, Q]^K, whether or not the samples reach its edge."""

    command: ClassVar[str] = "leakage"
    variance: float
    bin_width: float
    samples: int
    exhaustive: bool
    mi_bits: float
    sum_entropy_bits: float
    input_entropy_bits: float
    residual_bits: float
    bias_bound_bits: float
    config: SimConfig  # gains resolved


def run_leakage(cfg: SimConfig) -> LeakageRunReport:
    """Send input tuples to the eavesdropper and estimate leakage.

    Each sample is the aligned sum A * sum_k v_k, formed exactly and sent
    through ``transmit``, so noiseless tuples that share a sum share a
    bin.  Noiseless runs enumerate the input tuples exhaustively when they
    fit in the sample budget, which removes sampling error entirely; other
    runs draw uniform tuples from the shared batches.  The default bin
    width A/10 suits noiseless runs; for noisy runs pick a width
    commensurate with the noise scale, or the plug-in bias (roughly
    occupied cells / (2 n ln 2) bits) dominates the estimate.
    """
    if cfg.leakage_samples < MIN_LEAKAGE_SAMPLES:
        raise ParameterError(
            f"leakage sample budget must be >= {MIN_LEAKAGE_SAMPLES}, got {cfg.leakage_samples}"
        )
    if cfg.leakage_samples * cfg.K > JOINT_TABLE_CAP:  # refused before the tuples are drawn
        raise SizeCapError(
            f"{cfg.leakage_samples} samples of {cfg.K} inputs exceed cap {JOINT_TABLE_CAP}"
        )
    gains = cfg.resolve_gains()
    point = _grid_point(cfg, gains, cfg.P_grid[-1])
    Q, A = point.Q, point.A
    # sum_entropy's cap, before any draw, keeps K*Q < 2.5e6: the tuples and sums fit int64
    h_sum, h_in = sum_entropy(cfg.K, Q), cfg.K * math.log2(2 * Q + 1)
    width = cfg.bin_width if cfg.bin_width is not None else A / 10.0
    M = (2 * Q + 1) ** cfg.K

    exhaustive = cfg.variance == 0 and M <= cfg.leakage_samples
    if exhaustive:
        # one noiseless batch: the alphabet, repeated up to the sample floor,
        # which leaves the empirical distribution unchanged
        reps = math.ceil(MIN_LEAKAGE_SAMPLES / M)
        batches = [(mixed_radix_digits(np.arange(reps * M) % M, cfg.K, Q), None)]
    else:
        batches = (
            (draw.integers(-Q, Q + 1, size=(bs, cfg.K)), s)
            for bs, draw, s in _batches(cfg.master_seed, "leakage", cfg.leakage_samples)
        )
    observed = ((v, transmit(A * sum(v.T), cfg.variance, s)) for v, s in batches)
    tuples, z = map(np.concatenate, zip(*observed))

    mi, bias = leakage_estimate(tuples, z, width, Q)
    return LeakageRunReport(
        **vars(point),
        variance=cfg.variance,
        bin_width=width,
        samples=int(tuples.shape[0]),
        exhaustive=exhaustive,
        mi_bits=mi,
        sum_entropy_bits=h_sum,
        input_entropy_bits=h_in,
        residual_bits=h_in - h_sum,
        bias_bound_bits=bias,
        config=replace(cfg, h=gains.h, h_e=gains.h_e),
    )
