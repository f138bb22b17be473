"""Seeded command generator for the benchmark workloads.

Each workload is a fixed list of slots.  A slot fixes everything that sets
a command's cost: the command kind, K, epsilon, the symbol bound Q of
each grid point, block length, trial or sample count.  Its ``POOL``
members vary only the values: gains, the exact powers P inside each Q's
power interval, amplitudes, pmfs and master seeds.  Each member comes from
its own counter-keyed stream of ``CATALOG_SEED``, so the catalog never
depends on the run seed and every member has a stored reference output
(``reference/<workload>.json``).  The run seed picks one member per slot
and the order of the commands; a pass reads the chosen members' argv and
input files from the reference rather than generating them.  Because slots fix the cost, the work of
a plan is nearly the same from seed to seed, which keeps the spread of
the timings down to the machine's own noise.

Validity is decided from each config through the toolkit's public
functions (``effective_power``, ``select_params``, ``derive_code_sizes``),
never by running the command: every decoded grid point's constellation
fits the materialize cap, float gains carry no small integer relation,
and the dense leakage table stays bounded.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from secmac import ChannelGains, effective_power, normalize_gains, select_params
from secmac.simulate import SimConfig, derive_code_sizes

CATALOG_SEED = 20100117
POOL = 4
WORKLOADS = ("campaign", "block", "analysis")

# The seed commit's cap on materialized decompositions: every decoded grid
# point must stay at or below it.
MATERIALIZE_CAP = 1_000_000
P_RANGE = (1e4, 1e12)
GAIN_RANGE = (0.5, 2.0)
# Smallest |p + q . g| allowed for |q|_inf <= 3 among float gain ratios.
RELATION_GAP = 1e-3
# Dense leakage table (distinct tuples x distinct z-bins, float64): one
# large command per campaign plan and small ones otherwise.  2.8e7 cells
# is 224 MB per copy and the estimator holds two copies.
LARGE_DENSE_BAND = (2.2e7, 2.8e7)
SMALL_DENSE_CAP = 6e6
LEAKAGE_VARIANCE = 1.0
# Block tables stay below 1/256 of the sequence space (the regime
# derive_code_sizes aims for), so block errors come from the channel
# rather than from codebook collisions, and rerun counts are binomial.
LOW_RATE_ROWS = 4096
HIGH_RATE_ROWS = (32_768, 40_000)


@dataclass(frozen=True)
class Command:
    """One generated CLI invocation with the input files it reads."""

    id: str
    kind: str
    argv: tuple[str, ...]
    files: tuple[tuple[str, str], ...]
    work: int  # Monte Carlo trials, or candidates enumerated by an exact command

    @property
    def out(self) -> str:
        return f"{self.id}.csv"


# --- shared helpers ------------------------------------------------------


def _q_exponent(K: int, eps: float) -> float:
    return (1.0 - eps) / (2.0 * (K + eps))


def q_bounds(K: int, eps: float) -> tuple[int, int]:
    """Symbol bounds reachable for every gain draw within P_RANGE whose
    constellation fits the materialize cap."""
    qe = _q_exponent(K, eps)
    lo = max(1, math.floor((P_RANGE[0] * GAIN_RANGE[1] ** 2) ** qe) + 1)
    hi = math.floor((P_RANGE[1] * GAIN_RANGE[0] ** 2) ** qe) - 1
    while (2 * hi + 1) ** K > MATERIALIZE_CAP:
        hi -= 1
    return lo, hi


def _near_relation(gains: ChannelGains) -> bool:
    g = normalize_gains(gains).as_floats()[:-1]
    grids = np.meshgrid(*[np.arange(-3, 4)] * g.size, indexing="ij")
    q = np.stack([gr.ravel() for gr in grids], axis=1)
    s = q[np.any(q != 0, axis=1)] @ g
    return bool(np.min(np.abs(s - np.rint(s))) < RELATION_GAP)


def _float_gains(rng: np.random.Generator, K: int) -> ChannelGains:
    while True:
        v = rng.uniform(*GAIN_RANGE, size=2 * K)
        gains = ChannelGains(h=tuple(v[:K]), h_e=tuple(v[K:]))
        if not _near_relation(gains):
            return gains


def _p_for_q(rng, gains: ChannelGains, K: int, eps: float, Q: int) -> str | None:
    """A power P (as written to the config) whose power split gives exactly Q."""
    qe = _q_exponent(K, eps)
    he2 = min(x * x for x in gains.h_e)
    lo = max(math.log10(Q ** (1 / qe) / he2), math.log10(P_RANGE[0]))
    hi = min(math.log10((Q + 1) ** (1 / qe) / he2), math.log10(P_RANGE[1]))
    if hi - lo < 1e-4:
        return None
    for _ in range(8):
        text = format(10.0 ** rng.uniform(lo, hi), ".6g")
        if select_params(effective_power(gains, float(text)), K, eps).Q == Q:
            return text
    return None


def _gains_and_powers(rng, K: int, eps: float, qs) -> tuple[ChannelGains, list[str]]:
    while True:
        gains = _float_gains(rng, K)
        ps = [_p_for_q(rng, gains, K, eps, Q) for Q in qs]
        if None not in ps:
            return gains, ps


def _gain_text(values) -> str:
    return ",".join(repr(float(x)) for x in values)


def _config_text(**values) -> str:
    return "".join(f"{k} = {v}\n" for k, v in values.items())


def _config_command(cid: str, kind: str, work: int, **values) -> Command:
    argv = (kind, "--config", f"{cid}.cfg", "--out", f"{cid}.csv")
    return Command(cid, kind, argv, ((f"{cid}.cfg", _config_text(**values)),), work)


def dense_estimate(K: int, Q: int, A: float, samples: int) -> float:
    """Expected distinct tuples times an upper estimate of occupied z-bins
    for the default bin width A/10."""
    M = (2 * Q + 1) ** K
    distinct = -M * math.expm1(samples * math.log1p(-1.0 / M))
    per_sum = math.ceil(8.0 * math.sqrt(LEAKAGE_VARIANCE) / (A / 10.0)) + 1
    return distinct * min(samples, (2 * K * Q + 1) * per_sum)


def _pick(values: list[int], frac: float) -> int:
    return values[min(len(values) - 1, round(frac * (len(values) - 1)))]


# --- campaign: vectorised Monte Carlo (sweep and leakage) ----------------

SWEEP_VARIANTS = (  # (trials per grid point, fractions of the Q range per grid point)
    (20_000, (0.3, 0.6, 0.9)),
    (50_000, (0.3, 0.6, 0.9)),
    (100_000, (0.2, 0.5, 0.8)),
    (20_000, (0.1, 0.25, 0.4, 0.55)),
    (50_000, (0.1, 0.25, 0.4, 0.55)),
    (100_000, (0.0, 0.2, 0.4)),
    (20_000, (0.05, 0.3, 0.7)),
    (50_000, (0.0, 0.4, 0.7, 1.0)),
)
LEAKAGE_SAMPLES = (20_000, 50_000, 100_000)


def _campaign_slots() -> list[tuple]:
    slots = []
    for trials, fracs in SWEEP_VARIANTS:
        for eps in (0.1, 0.3, 0.5):
            for K in (2, 3, 4):
                lo, hi = q_bounds(K, eps)
                qs = sorted({lo + round(f * (hi - lo)) for f in fracs})
                slots.append(("sweep", K, eps, trials, tuple(qs)))
    lo, hi = q_bounds(2, 0.1)
    large = [Q for Q in range(lo, hi + 1)
             if LARGE_DENSE_BAND[0] <= dense_estimate(2, Q, 1e3, 100_000) <= LARGE_DENSE_BAND[1]]
    slots.append(("leakage", 2, 0.1, 100_000, large[len(large) // 2]))
    for j in range(27):
        K, eps, samples = (2, 3, 4)[j % 3], (0.1, 0.3, 0.5)[(j // 3) % 3], LEAKAGE_SAMPLES[j // 9]
        lo, hi = q_bounds(K, eps)
        small = [Q for Q in range(lo, hi + 1) if dense_estimate(K, Q, 1e3, samples) <= SMALL_DENSE_CAP / 2]
        slots.append(("leakage", K, eps, samples, _pick(small, (0.2, 0.6, 1.0)[j // 9])))
    return slots


def _sweep(cid: str, rng, K: int, eps: float, trials: int, qs: tuple[int, ...]) -> Command:
    gains, ps = _gains_and_powers(rng, K, eps, qs)
    return _config_command(
        cid, "sweep", trials * len(qs), k=K, epsilon=eps, p_grid=",".join(ps), trials=trials,
        h=_gain_text(gains.h), h_e=_gain_text(gains.h_e), master_seed=int(rng.integers(2**31)),
    )


def _leakage(cid: str, rng, K: int, eps: float, samples: int, Q: int) -> Command:
    while True:
        gains, (p,) = _gains_and_powers(rng, K, eps, (Q,))
        A = select_params(effective_power(gains, float(p)), K, eps).A
        if dense_estimate(K, Q, A, samples) <= LARGE_DENSE_BAND[1]:
            break
    return _config_command(
        cid, "leakage", samples, k=K, epsilon=eps, p_grid=p, h=_gain_text(gains.h),
        h_e=_gain_text(gains.h_e), variance=LEAKAGE_VARIANCE, leakage_samples=samples,
        master_seed=int(rng.integers(2**31)),
    )


# --- block: per-trial Python path and codebook construction --------------


def _rows(K: int, eps: float, n: int, Q: int) -> int:
    B, L = derive_code_sizes(SimConfig(K=K, epsilon=eps, P_grid=(P_RANGE[0],), n=n), Q)
    return B * L


def _block_slots() -> list[tuple]:
    high = [
        (eps, n, Q)
        for n in (5, 6)
        for eps in (0.3, 0.1, 0.5)
        for Q in range(q_bounds(2, eps)[0], q_bounds(2, eps)[1] + 1)
        if HIGH_RATE_ROWS[0] <= _rows(2, eps, n, Q) <= HIGH_RATE_ROWS[1]
    ]
    slots = [("block", 2, eps, 20, n, Q) for eps, n, Q in high[:2]]
    for i in range(98):
        K, eps = (2, 3)[i % 2], (0.1, 0.3, 0.5)[(i // 2) % 3]
        trials = (100, 150, 200)[(i // 18) % 3]
        lo, hi = q_bounds(K, eps)
        # the shortest block length from the slot's start whose table is sparse
        for n in range((2, 3, 4)[(i // 6) % 3], 9):
            low = [Q for Q in range(lo, hi + 1)
                   if _rows(K, eps, n, Q) <= min(LOW_RATE_ROWS, (2 * Q + 1) ** n // 256)]
            if low:
                break
        slots.append(("block", K, eps, trials, n, _pick(low, (0.1, 0.5, 0.9)[i % 3])))
    return slots


def _block(cid: str, rng, K: int, eps: float, trials: int, n: int, Q: int) -> Command:
    gains, (p,) = _gains_and_powers(rng, K, eps, (Q,))
    return _config_command(
        cid, "block", trials, k=K, epsilon=eps, p_grid=p, trials=trials, n=n,
        h=_gain_text(gains.h), h_e=_gain_text(gains.h_e), master_seed=int(rng.integers(2**31)),
    )


# --- analysis: exact and deterministic commands ---------------------------


def _analysis_slots() -> list[tuple]:
    slots = [("dmin_exact", 2, 5 + round(55 * i / 14)) for i in range(15)]
    slots += [("dmin_exact", 3, 2 + i // 2) for i in range(10)]
    slots += [("dmin_float", 3, 49)]
    slots += [("dmin_float", 3, 5 + 2 * i) for i in range(10)]
    slots += [("dmin_float", 4, 2 + i) for i in range(9)]
    slots += [("kg", 1, (10, 30, top // 5, top)) for top in range(1_000, 20_001, 1_900)]
    slots += [("kg", 1, (10, 30, 4_000, 20_000))]
    slots += [("kg", 2, (5, 20, top // 3, top)) for top in range(100, 301, 28)][:8]
    slots += [("entropy", 9 + i % 4, 60 + 4 * i) for i in range(5)]
    slots += [("entropy", 2 + i % 7, 4 * i + 2) for i in range(15)]
    slots += [("region", 2 + i % 2, 2 + i % 3, 2 + (i // 3) % 2, 2 + i % 4, 2 + (i // 2) % 3)
              for i in range(15)]
    return slots


def _amplitude(rng) -> str:
    return format(rng.uniform(0.5, 50.0), ".6g")


def _dmin_exact(cid: str, rng, K: int, Q: int) -> Command:
    gains = ",".join(f"{a}/{b}" for a, b in rng.integers(1, 41, size=(K, 2)))
    argv = ("dmin", "--gains", gains, "--q", str(Q), "--a", _amplitude(rng), "--out", f"{cid}.csv")
    return Command(cid, "dmin", argv, (), (2 * Q + 1) ** K)


def _dmin_float(cid: str, rng, K: int, Q: int) -> Command:
    gains = _gain_text(rng.uniform(*GAIN_RANGE, size=K))
    argv = ("dmin", "--gains", gains, "--q", str(Q), "--a", _amplitude(rng), "--out", f"{cid}.csv")
    return Command(cid, "dmin", argv, (), (2 * Q + 1) ** K)


def linear_form_points(m: int, N: int) -> int:
    """Canonical integer vectors min_linear_form scans for m gains and bound N."""
    return sum(N * (2 * N + 1) ** (m - 1 - j) for j in range(m))


def _kg(cid: str, rng, m: int, rungs: tuple[int, ...]) -> Command:
    gains = _gain_text(rng.uniform(*GAIN_RANGE, size=m))
    eps = float(rng.choice((0.1, 0.5)))
    argv = ("kg", "--gains", gains, "--eps", str(eps), "--n-list", ",".join(map(str, rungs)),
            "--out", f"{cid}.csv")
    return Command(cid, "kg", argv, (), sum(linear_form_points(m, N) for N in rungs))


def _entropy(cid: str, rng, K: int, Q: int) -> Command:
    Q += int(rng.integers(-1, 2))  # neighbouring bounds cost about the same
    work = sum((2 * k * Q + 1) * (2 * Q + 1) for k in range(1, K))
    argv = ("entropy", "--k", str(K), "--q", str(Q), "--out", f"{cid}.csv")
    return Command(cid, "entropy", argv, (), work)


def _pmf_text(rng, rows: int, cols: int) -> str:
    out = []
    for _ in range(rows):
        p = rng.dirichlet(np.ones(cols))
        p[-1] = 1.0 - float(np.sum(p[:-1]))
        out.append(" ".join(repr(float(x)) for x in p))
    return "  ".join(out)


def _region(cid: str, rng, K: int, u: int, x: int, y: int, z: int) -> Command:
    lines = {"k": K, "u_sizes": " ".join([str(u)] * K), "x_sizes": " ".join([str(x)] * K),
             "y_size": y, "z_size": z}
    for k in range(1, K + 1):
        lines[f"p_u_{k}"] = _pmf_text(rng, 1, u)
        lines[f"p_x_given_u_{k}"] = _pmf_text(rng, u, x)
    lines["p_yz_given_x"] = _pmf_text(rng, x**K, y * z)
    argv = ("region", "--spec", f"{cid}.spec", "--out", f"{cid}.csv")
    return Command(cid, "region", argv, ((f"{cid}.spec", _config_text(**lines)),),
                   u**K * x**K * y * z)


# --- catalog and plans ----------------------------------------------------

SLOTS = {"campaign": _campaign_slots, "block": _block_slots, "analysis": _analysis_slots}
MAKERS = {
    "sweep": _sweep, "leakage": _leakage, "block": _block, "dmin_exact": _dmin_exact,
    "dmin_float": _dmin_float, "kg": _kg, "entropy": _entropy, "region": _region,
}


@functools.cache
def slots(workload: str) -> tuple[tuple, ...]:
    return tuple(SLOTS[workload]())


def member_id(slot: int, index: int) -> str:
    return f"s{slot:03d}m{index}"


def member(workload: str, slot: int, index: int) -> Command:
    """Catalog member ``index`` of ``slot``: the same command at every commit."""
    spec = slots(workload)[slot]
    rng = np.random.default_rng([CATALOG_SEED, WORKLOADS.index(workload), slot, index])
    return MAKERS[spec[0]](member_id(slot, index), rng, *spec[1:])


def catalog(workload: str) -> list[Command]:
    return [member(workload, s, m) for s in range(len(slots(workload))) for m in range(POOL)]


def picks(workload: str, seed: int, n_slots: int) -> list[tuple[int, int]]:
    """(slot, member) pairs of one plan: one member per slot, in a seeded order."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng([CATALOG_SEED, WORKLOADS.index(workload), 2**32, seed])
    chosen = rng.integers(POOL, size=n_slots)
    return [(int(s), int(chosen[s])) for s in rng.permutation(n_slots)]


def plan(workload: str, seed: int, reference: dict) -> list[Command]:
    """The commands of one plan, read from the stored reference entries of
    the catalog (``reference/<workload>.json``), so a pass spends no time
    in the generator."""
    if len(reference) % POOL:
        raise ValueError(f"{len(reference)} reference entries is not a multiple of {POOL}")
    out = []
    for slot, index in picks(workload, seed, len(reference) // POOL):
        cid = member_id(slot, index)
        e = reference[cid]
        out.append(Command(cid, e["kind"], tuple(e["argv"]), tuple(e["files"].items()), e["work"]))
    return out
