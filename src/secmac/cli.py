"""Command-line front end.

Commands: params, dmin, sweep, block, kg, region, entropy, leakage,
check.  Configs are 'key = value' text files with '#' comments.  Every
command accepts --seed and --out; with --out the CSV goes to the file
and a metadata sidecar to '<out>.meta', otherwise both print to stdout.
Exit codes: 0 success, 2 validation error (including gains whose
constellation is not uniquely decodable), 3 computational cap.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from fractions import Fraction

from . import __version__
from .channel import ChannelGains, NormalizedGains, effective_power
from .constellation import ENUMERATION_CAP, received_constellation, select_params
from .diophantine import kg_profile
from .errors import AmbiguityError, ParameterError, SizeCapError
from .secrecy import achievable_region, load_mac_spec, subset_mask, sum_entropy
from .simulate import SimConfig, fmt, run_block_trials, run_leakage, run_symbol_sweep


def parse_gain_token(tok: str) -> float | Fraction:
    """Decimal literal -> float; 'a/b' -> exact Fraction."""
    tok = tok.strip()
    if "/" in tok:
        num, den = tok.split("/", 1)
        try:
            return Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParameterError(f"bad rational gain token {tok!r}: {exc}") from None
    try:
        return float(tok)
    except ValueError:
        raise ParameterError(f"bad gain token {tok!r}") from None


def parse_gain_list(text: str) -> list[float | Fraction]:
    toks = [t for t in text.split(",") if t.strip()]
    if not toks:
        raise ParameterError("empty gain list")
    return [parse_gain_token(t) for t in toks]


# config schema: key -> parser
def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(t) for t in text.split(",") if t.strip())


def _gain_floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in parse_gain_list(text))


CONFIG_KEYS = {
    "k": int,
    "epsilon": float,
    "p_grid": _float_list,
    "trials": int,
    "n": int,
    "master_seed": int,
    "variance": float,
    "h": _gain_floats,
    "h_e": _gain_floats,
    "gains_seed": int,
    "gains_low": float,
    "gains_high": float,
    "bin_width": float,
    "leakage_samples": int,
    "cap": int,
}


def parse_config(path: str, required: tuple[str, ...]) -> dict:
    values: dict = {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ParameterError(f"cannot read config {path}: {exc}") from None
    with fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise ParameterError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ParameterError(f"{path}:{lineno}: duplicate key {key!r}")
            try:
                values[key] = CONFIG_KEYS[key](val)
            except ParameterError:
                raise
            except ValueError as exc:
                raise ParameterError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
    missing = [k for k in required if k not in values]
    if missing:
        raise ParameterError(f"{path}: missing required key(s) {missing}")
    return values


def sim_config_from(values: dict, seed_override: int | None) -> SimConfig:
    if seed_override is not None:
        values = {**values, "master_seed": seed_override}
    kwargs = dict(values)
    kwargs["K"] = kwargs.pop("k")
    kwargs["P_grid"] = kwargs.pop("p_grid")
    return SimConfig(**kwargs)


def emit(args, csv_text: str, meta: dict) -> None:
    meta_lines = [f"{k} = {v}" for k, v in meta.items()]
    sidecar = "# secmac metadata v1\n" + "\n".join(meta_lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(csv_text)
        with open(args.out + ".meta", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(sidecar)
        print(f"wrote {args.out} and {args.out}.meta")
    else:
        sys.stdout.write(csv_text)
        sys.stdout.write(sidecar)


def base_meta(args, command: str, t0: float) -> dict:
    return {
        "command": command,
        "version": __version__,
        "seed": args.seed if args.seed is not None else "",
        "wall_time_s": f"{time.monotonic() - t0:.3f}",
    }


def cmd_params(args) -> int:
    t0 = time.monotonic()
    if args.p_tilde is not None:
        if args.p is not None or args.h_e is not None:
            raise ParameterError("give either --p-tilde or (--p and --h-e), not both")
        p_tilde = args.p_tilde
        policy = "P_tilde supplied directly"
    else:
        if args.p is None or args.h_e is None:
            raise ParameterError("need --p-tilde, or both --p and --h-e")
        h_e = _gain_floats(args.h_e)
        gains = ChannelGains(h=(1.0,) * len(h_e), h_e=h_e)
        p_tilde = effective_power(gains, args.p)
        policy = "P_tilde = min_k h_e[k]^2 * P"
    Q, A = select_params(p_tilde, args.k, args.eps)
    ok = A * A * Q * Q <= p_tilde
    print(f"policy: {policy}")
    print(f"P_tilde = {fmt(p_tilde)}")
    print(f"Q = {Q}")
    print(f"A = {fmt(A)}")
    print(f"power check: A^2 Q^2 = {fmt(A * A * Q * Q)} <= P_tilde: {ok}")
    csv_text = (
        "P_tilde,K,epsilon,Q,A,power_ok\n"
        f"{fmt(p_tilde)},{args.k},{fmt(args.eps)},{Q},{fmt(A)},{int(ok)}\n"
    )
    emit(args, csv_text, base_meta(args, "params", t0))
    return 0


def _normalized_from_tokens(tokens: list[float | Fraction]) -> NormalizedGains:
    last = tokens[-1]
    if last == 0:
        raise ParameterError("last gain is zero; cannot normalize")
    try:
        if all(isinstance(t, (Fraction, int)) for t in tokens):
            g = tuple(Fraction(t) / Fraction(last) for t in tokens)
        else:
            g = tuple(float(t) / float(last) for t in tokens[:-1]) + (1.0,)
        scale = float(last)
    except OverflowError:
        raise ParameterError("a gain lies beyond the float64 range") from None
    return NormalizedGains(g=g, scale=scale)


def cmd_dmin(args) -> int:
    t0 = time.monotonic()
    tokens = parse_gain_list(args.gains)
    g = _normalized_from_tokens(tokens)
    rc = received_constellation(g, args.q, args.a, cap=args.cap)
    print(f"points = {rc.points.size}")
    print(f"gamma = {rc.gamma.value}")
    print(f"d_min = {fmt(rc.d_min)}")
    csv_text = (
        "q,a,points,gamma,d_min\n"
        f"{args.q},{fmt(args.a)},{rc.points.size},{rc.gamma.value},{fmt(rc.d_min)}\n"
    )
    meta = base_meta(args, "dmin", t0)
    meta["gains"] = args.gains
    meta["exact"] = int(g.exact)
    emit(args, csv_text, meta)
    return 0


def cmd_sweep(args) -> int:
    t0 = time.monotonic()
    values = parse_config(args.config, required=("k", "epsilon", "p_grid", "trials"))
    cfg = sim_config_from(values, args.seed)
    report = run_symbol_sweep(cfg)
    meta = base_meta(args, "sweep", t0)
    meta.update(report.metadata())
    meta["wall_time_s"] = f"{time.monotonic() - t0:.3f}"
    emit(args, report.to_csv(), meta)
    return 0


def cmd_block(args) -> int:
    t0 = time.monotonic()
    values = parse_config(args.config, required=("k", "epsilon", "p_grid", "trials", "n"))
    cfg = sim_config_from(values, args.seed)
    report = run_block_trials(cfg)
    meta = base_meta(args, "block", t0)
    meta.update(report.metadata())
    meta["wall_time_s"] = f"{time.monotonic() - t0:.3f}"
    emit(args, report.to_csv(), meta)
    return 0


def cmd_leakage(args) -> int:
    t0 = time.monotonic()
    values = parse_config(args.config, required=("k", "epsilon", "p_grid"))
    cfg = sim_config_from(values, args.seed)
    report = run_leakage(cfg)
    meta = base_meta(args, "leakage", t0)
    meta.update(report.metadata())
    meta["wall_time_s"] = f"{time.monotonic() - t0:.3f}"
    emit(args, report.to_csv(), meta)
    return 0


def cmd_kg(args) -> int:
    t0 = time.monotonic()
    gains = [float(v) for v in parse_gain_list(args.gains)]
    n_list = [int(t) for t in args.n_list.split(",") if t.strip()]
    profile = kg_profile(gains, args.eps, n_list)
    lines = ["N,m,m_scaled"]
    for N, m, scaled in profile.rows:
        lines.append(f"{N},{fmt(m)},{fmt(scaled)}")
    csv_text = "\n".join(lines) + "\n"
    print(f"c_hat = {fmt(profile.c_hat)}")
    meta = base_meta(args, "kg", t0)
    meta["gains"] = args.gains
    meta["epsilon"] = fmt(args.eps)
    meta["c_hat"] = fmt(profile.c_hat)
    emit(args, csv_text, meta)
    return 0


def cmd_region(args) -> int:
    t0 = time.monotonic()
    spec = load_mac_spec(args.spec)
    region = achievable_region(spec)
    lines = ["subset_bitmask,bound_bits"]
    for subset, bound in region.constraints:
        lines.append(f"{subset_mask(subset)},{fmt(bound)}")
    lines.append(f"{(1 << region.K) - 1},{fmt(region.sum_bound)}")
    csv_text = "\n".join(lines) + "\n"
    print(f"sum_bound = {fmt(region.sum_bound)}")
    meta = base_meta(args, "region", t0)
    meta["spec"] = args.spec
    emit(args, csv_text, meta)
    return 0


def cmd_entropy(args) -> int:
    t0 = time.monotonic()
    bits = sum_entropy(args.k, args.q)
    print(f"sum_entropy = {fmt(bits)} bits")
    csv_text = f"k,q,bits\n{args.k},{args.q},{fmt(bits)}\n"
    emit(args, csv_text, base_meta(args, "entropy", t0))
    return 0


def _canonical_cell(cell: str) -> str:
    try:
        return str(int(cell))
    except ValueError:
        pass
    try:
        return fmt(float(cell))
    except ValueError:
        return cell


def cmd_check(args) -> int:
    """Re-parse a CSV produced by this tool and diff against a canonical re-emit."""
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            original = fh.read()
    except OSError as exc:
        raise ParameterError(f"cannot read {args.file}: {exc}") from None
    lines = original.splitlines()
    if not lines:
        raise ParameterError(f"{args.file} is empty")
    rebuilt = [lines[0]]
    for line in lines[1:]:
        rebuilt.append(",".join(_canonical_cell(c) for c in line.split(",")))
    new_text = "\n".join(rebuilt) + "\n"
    if new_text == original:
        print(f"{args.file}: ok ({len(lines) - 1} data row(s), zero diffs)")
        return 0
    for i, (a, b) in enumerate(zip(lines, new_text.splitlines())):
        if a != b:
            print(f"{args.file}: line {i + 1} differs", file=sys.stderr)
            print(f"  file:      {a}", file=sys.stderr)
            print(f"  canonical: {b}", file=sys.stderr)
            break
    return 2


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing does not change it)."""
    parser = argparse.ArgumentParser(
        prog="secmac",
        description="Secure integer-constellation coding toolkit for the Gaussian MAC",
    )
    parser.add_argument("--version", action="version", version=f"secmac {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", default=None, help="write CSV here (+ .meta sidecar)")

    p = sub.add_parser("params", help="power-split parameters (Q, A)")
    p.add_argument("--p-tilde", type=float, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--h-e", default=None, help="comma list of eavesdropper gains")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    add_common(p)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("dmin", help="received constellation and minimum distance")
    p.add_argument("--gains", required=True, help="comma list; a/b tokens are exact")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--cap", type=int, default=ENUMERATION_CAP)
    add_common(p)
    p.set_defaults(func=cmd_dmin)

    p = sub.add_parser("sweep", help="Monte Carlo symbol error sweep over a power grid")
    p.add_argument("--config", required=True)
    add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("block", help="full random-binning block trials")
    p.add_argument("--config", required=True)
    add_common(p)
    p.set_defaults(func=cmd_block)

    p = sub.add_parser("kg", help="Khintchine-Groshev linear-form profile")
    p.add_argument("--gains", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--n-list", required=True, help="comma list of search bounds N")
    add_common(p)
    p.set_defaults(func=cmd_kg)

    p = sub.add_parser("region", help="achievable secrecy rate region of a discrete MAC")
    p.add_argument("--spec", required=True, help="channel spec file")
    add_common(p)
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("entropy", help="exact entropy of a sum of uniform inputs")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("leakage", help="plug-in eavesdropper leakage estimate")
    p.add_argument("--config", required=True)
    add_common(p)
    p.set_defaults(func=cmd_leakage)

    p = sub.add_parser("check", help="verify a CSV re-parses with zero diffs")
    p.add_argument("file")
    add_common(p)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, AmbiguityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
