"""Output checks against the stored reference.

Exact-analysis CSVs (dmin, kg, entropy, region) must equal the reference
byte for byte.  Monte Carlo CSVs (sweep, block, leakage) split their
columns: deterministic fields (P, Q, A, d_min, B, L, the analytic
bounds, ...) must equal the reference cell for cell, while error counts
and leakage estimates need only agree with it statistically.  Counts are
compared with Wilson score intervals at ``CHECK_Z``: two proportions
agree when their intervals overlap.  So a declared change of the random
stream layout still passes, and a wrong decoder does not.
"""

from __future__ import annotations

import math

CHECK_Z = 5.0  # two-sided tail about 6e-7 per interval
# Slack for an interval containing its own estimate: the program's Wilson
# bound at zero errors rounds to about 1e-18 rather than 0.
CONTAIN_SLACK = 1e-12
EXACT_KINDS = ("dmin", "kg", "entropy", "region")


def wilson(k: int, n: int, z: float = CHECK_Z) -> tuple[float, float]:
    """Wilson score interval for k successes out of n."""
    if n < 1 or not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n and n >= 1, got k={k} n={n}")
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def wilson_agree(k1: int, n1: int, k2: int, n2: int) -> bool:
    lo1, hi1 = wilson(k1, n1)
    lo2, hi2 = wilson(k2, n2)
    return lo1 <= hi2 and lo2 <= hi1


def config_values(text: str) -> dict[str, str]:
    out = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if "=" in line:
            key, val = (s.strip() for s in line.split("=", 1))
            out[key] = val
    return out


def _rows(text: str) -> tuple[list[str], list[dict[str, str]]]:
    lines = text.splitlines()
    header = lines[0].split(",") if lines else []
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def _count(p: str, n: int) -> int:
    return round(float(p) * n)


def _contains(low: str, x: float, high: str) -> bool:
    return float(low) - CONTAIN_SLACK <= x <= float(high) + CONTAIN_SLACK


SWEEP_EXACT = ("P", "P_tilde", "Q", "A", "d_min", "pe_tail_bound", "pe_exp_bound")
BLOCK_EXACT = ("P", "P_tilde", "Q", "A", "n", "B", "L", "rate_bits_per_user", "trials")
LEAKAGE_EXACT = ("P", "P_tilde", "Q", "A", "variance", "bin_width", "samples", "exhaustive",
                 "sum_entropy_bits", "input_entropy_bits", "residual_bits")


def _sweep_row(ref: dict, new: dict, cfg: dict) -> str | None:
    trials, K = int(cfg["trials"]), int(cfg["k"])
    k_ref, k_new = _count(ref["pe_mc"], trials), _count(new["pe_mc"], trials)
    if not wilson_agree(k_ref, trials, k_new, trials):
        return f"pe_mc {new['pe_mc']} disagrees with reference {ref['pe_mc']}"
    pe = float(new["pe_mc"])
    if not _contains(new["pe_mc_ci_low"], pe, new["pe_mc_ci_high"]):
        return "pe_mc outside its own interval"
    # the sum-rate bound is Lipschitz in P_e with constant K log2(2Q+1)
    shift = K * math.log2(2 * int(ref["Q"]) + 1) * abs(pe - float(ref["pe_mc"]))
    for col, scale in (("r_sum_bound_bits", 1.0), ("eta_running", 0.5 * math.log2(float(ref["P"])))):
        if abs(float(new[col]) - float(ref[col])) > shift / scale + 1e-9 * (1 + abs(float(ref[col]))):
            return f"{col} {new[col]} inconsistent with reference {ref[col]}"
    return None


def _block_row(ref: dict, new: dict, cfg: dict) -> str | None:
    trials = int(ref["trials"])
    for col in ("block_errors", "decode_failures"):
        if not wilson_agree(int(ref[col]), trials, int(new[col]), trials):
            return f"{col} {new[col]} disagrees with reference {ref[col]}"
    bler = float(new["bler"])
    if abs(bler - int(new["block_errors"]) / trials) > 1e-12:
        return "bler is not block_errors / trials"
    if not _contains(new["bler_ci_low"], bler, new["bler_ci_high"]):
        return "bler outside its own interval"
    rows = int(cfg["k"]) * int(ref["B"]) * int(ref["L"])
    if not wilson_agree(int(ref["cross_bin_duplicates"]), rows, int(new["cross_bin_duplicates"]), rows):
        return "cross_bin_duplicates disagrees with reference"
    return None


def _leakage_row(ref: dict, new: dict, cfg: dict) -> str | None:
    n = int(ref["samples"])
    occ = [round(float(r["bias_bound_bits"]) * 2 * n * math.log(2)) + 1 for r in (ref, new)]
    if not wilson_agree(occ[0], n, occ[1], n):
        return "occupied cells (bias_bound_bits) disagree with reference"
    # per-sample information is bounded by the larger of the input entropy
    # and log2 of the sample count, which bounds the estimator's spread
    sd = max(float(ref["input_entropy_bits"]), math.log2(n)) / math.sqrt(n)
    tol = CHECK_Z * math.sqrt(2.0) * sd + float(ref["bias_bound_bits"]) + float(new["bias_bound_bits"])
    if abs(float(new["mi_bits"]) - float(ref["mi_bits"])) > tol:
        return f"mi_bits {new['mi_bits']} disagrees with reference {ref['mi_bits']} (tol {tol:.3g})"
    return None


MC_RULES = {
    "sweep": (SWEEP_EXACT, _sweep_row),
    "block": (BLOCK_EXACT, _block_row),
    "leakage": (LEAKAGE_EXACT, _leakage_row),
}


def compare(kind: str, ref: dict, csv_text: str) -> str | None:
    """None when ``csv_text`` passes against reference entry ``ref``,
    otherwise the reason it fails."""
    if csv_text == ref["csv"]:
        return None
    if kind in EXACT_KINDS:
        return "CSV differs from the reference"
    exact, row_check = MC_RULES[kind]
    header_ref, rows_ref = _rows(ref["csv"])
    header_new, rows_new = _rows(csv_text)
    if header_new != header_ref or len(rows_new) != len(rows_ref):
        return "CSV header or row count differs from the reference"
    cfg = config_values(next(iter(ref["files"].values())))
    try:
        for r, w in zip(rows_ref, rows_new):
            for col in exact:
                if w[col] != r[col]:
                    return f"{col} = {w[col]} differs from reference {r[col]}"
            reason = row_check(r, w, cfg)
            if reason:
                return reason
    except (KeyError, ValueError) as exc:
        return f"unreadable cell: {exc!r}"
    return None
