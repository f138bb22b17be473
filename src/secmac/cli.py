"""Command-line front end.

Commands: params, dmin, sweep, block, kg, region, entropy, leakage,
check.  Configs are 'key = value' text files with '#' comments.  Every
command but check accepts --out; with --out the CSV goes to the file
and a metadata sidecar to '<out>.meta', otherwise both print to stdout.
The commands that draw (sweep, block, leakage) accept --seed.
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
from .constellation import received_constellation, select_params
from .diophantine import kg_profile
from .errors import AmbiguityError, ParameterError, SizeCapError
from .keyvalue import parse_value, read_key_values, read_text
from .secrecy import achievable_region, load_mac_spec, subset_mask, sum_entropy
from .simulate import SimConfig, csv_text, fmt, run_block_trials, run_leakage, run_symbol_sweep


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
    try:
        return tuple(float(v) for v in parse_gain_list(text))
    except OverflowError:
        raise ParameterError("a gain lies outside the float64 range") from None


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
    "bin_width": float,
    "leakage_samples": int,
}


def parse_config(path: str, required: tuple[str, ...]) -> dict:
    values: dict = {}
    for key, (lineno, val) in read_key_values(path).items():
        if key not in CONFIG_KEYS:
            raise ParameterError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = parse_value(path, key, lineno, CONFIG_KEYS[key], val)
    missing = [k for k in required if k not in values]
    if missing:
        raise ParameterError(f"{path}: missing required key(s) {missing}")
    return values


def emit(args, csv: str, **fields) -> None:
    """Write a command's CSV and its metadata sidecar: the command, version
    and wall time since ``args.t0``, then ``fields``."""
    meta = {
        "command": args.command,
        "version": __version__,
        "wall_time_s": f"{time.monotonic() - args.t0:.3f}",
        **fields,
    }
    sidecar = "# secmac metadata v1\n" + "".join(f"{k} = {v}\n" for k, v in meta.items())
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(csv)
        with open(args.out + ".meta", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(sidecar)
        print(f"wrote {args.out} and {args.out}.meta")
    else:
        sys.stdout.write(csv)
        sys.stdout.write(sidecar)


def cmd_params(args) -> int:
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
    emit(args, csv_text("P_tilde,K,epsilon,Q,A,power_ok", [(p_tilde, args.k, args.eps, Q, A, ok)]))
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
    except (OverflowError, ZeroDivisionError):  # a float past the range, or one that underflows to 0
        raise ParameterError("a gain lies outside the float64 range") from None
    return NormalizedGains(g=g, scale=scale)


def cmd_dmin(args) -> int:
    tokens = parse_gain_list(args.gains)
    g = _normalized_from_tokens(tokens)
    rc = received_constellation(g, args.q, args.a)
    print(f"points = {rc.points.size}")
    print(f"gamma = {rc.gamma.value}")
    print(f"d_min = {fmt(rc.d_min)}")
    row = (args.q, args.a, rc.points.size, rc.gamma.value, rc.d_min)
    emit(args, csv_text("q,a,points,gamma,d_min", [row]), gains=args.gains, exact=int(g.exact))
    return 0


# Config-file commands: name -> (help, required keys, name of the runner in
# this module).  The runner is looked up by name at call time, so a wrapper
# installed on this module's attribute sees every call.
RUNS = {
    "sweep": ("Monte Carlo symbol error sweep over a power grid",
              ("k", "epsilon", "p_grid", "trials"), "run_symbol_sweep"),
    "block": ("full random-binning block trials",
              ("k", "epsilon", "p_grid", "trials", "n"), "run_block_trials"),
    "leakage": ("plug-in eavesdropper leakage estimate",
                ("k", "epsilon", "p_grid"), "run_leakage"),
}


def cmd_run(args) -> int:
    _, required, runner = RUNS[args.command]
    values = parse_config(args.config, required)
    if args.seed is not None:
        values["master_seed"] = args.seed
    cfg = SimConfig(K=values.pop("k"), P_grid=values.pop("p_grid"), **values)
    report = globals()[runner](cfg)
    emit(args, report.to_csv(), **report.metadata())
    return 0


def cmd_kg(args) -> int:
    gains = _gain_floats(args.gains)
    try:
        n_list = [int(t) for t in args.n_list.split(",") if t.strip()]
    except ValueError:
        raise ParameterError(f"bad N list {args.n_list!r}: need comma-separated integers") from None
    profile = kg_profile(gains, args.eps, n_list)
    print(f"c_hat = {fmt(profile.c_hat)}")
    emit(args, csv_text("N,m,m_scaled", profile.rows),
         gains=args.gains, epsilon=fmt(args.eps), c_hat=fmt(profile.c_hat))
    return 0


def cmd_region(args) -> int:
    spec = load_mac_spec(args.spec)
    region = achievable_region(spec)
    rows = [(subset_mask(subset), bound) for subset, bound in region.constraints]
    rows.append(((1 << region.K) - 1, region.sum_bound))
    print(f"sum_bound = {fmt(region.sum_bound)}")
    emit(args, csv_text("subset_bitmask,bound_bits", rows), spec=args.spec)
    return 0


def cmd_entropy(args) -> int:
    bits = sum_entropy(args.k, args.q)
    print(f"sum_entropy = {fmt(bits)} bits")
    emit(args, csv_text("k,q,bits", [(args.k, args.q, bits)]))
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
    original = read_text(args.file)
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
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"secmac {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        """A subcommand running ``func`` that writes a CSV, to ``--out`` if given."""
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--out", default=None, help="write CSV here (+ .meta sidecar)")
        p.set_defaults(func=func)
        return p

    p = add("params", cmd_params, "power-split parameters (Q, A)")
    p.add_argument("--p-tilde", type=float, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--h-e", default=None, help="comma list of eavesdropper gains")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)

    p = add("dmin", cmd_dmin, "received constellation and minimum distance")
    p.add_argument("--gains", required=True, help="comma list; a/b tokens are exact")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", type=float, required=True)

    for name, (help_text, _, _) in RUNS.items():
        p = add(name, cmd_run, help_text)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None, help="master seed override")

    p = add("kg", cmd_kg, "Khintchine-Groshev linear-form profile")
    p.add_argument("--gains", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--n-list", required=True, help="comma list of search bounds N")

    p = add("region", cmd_region, "achievable secrecy rate region of a discrete MAC")
    p.add_argument("--spec", required=True, help="channel spec file")

    p = add("entropy", cmd_entropy, "exact entropy of a sum of uniform inputs")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=int, required=True)

    p = sub.add_parser("check", help="verify a CSV re-parses with zero diffs", allow_abbrev=False)
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse reads a list value that starts with "-" as an option, so
    # "--gains -1,2" is passed on as "--gains=-1,2" when the value reads as a
    # gain list; options have no abbreviations, so only these two names match
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in ("--gains", "--h-e") and argv[i].startswith("-"):
            try:
                parse_gain_list(argv[i])
            except ParameterError:
                continue
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = build_parser().parse_args(argv)
    args.t0 = time.monotonic()
    try:
        return args.func(args)
    except (ParameterError, AmbiguityError, SizeCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, SizeCapError) else 2


if __name__ == "__main__":
    sys.exit(main())
