"""Command-line front end.

Commands, in parser order: params, dmin, sweep, block, leakage, kg,
region and entropy, each declared once in the ``COMMANDS`` table, then
check.  The ones that draw (sweep, block, leakage) accept --seed.  Configs
are 'key = value' text files with '#' comments.  Every command but check
prints and writes nothing itself: it hands its summary lines, CSV and
sidecar fields to ``emit``, which writes the CSV to --out and a metadata
sidecar to '<out>.meta', or prints all three to stdout.
Exit codes: 0 success, 2 validation error (including gains whose
constellation is not uniquely decodable), 3 computational cap.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .channel import ChannelGains, effective_power, normalize_ratios
from .constellation import received_constellation, select_params
from .diophantine import kg_profile
from .errors import ParameterError, SizeCapError
from .keyvalue import key_values, parse_value, read_text
from .secrecy import achievable_region, load_mac_spec, sum_entropy
from .simulate import SimConfig, csv_text, fmt, run_block_trials, run_leakage, run_symbol_sweep


def parse_gain_token(tok: str) -> float | Fraction:
    """A stripped token: 'a/b' -> exact Fraction, else float.  A bad token
    raises int's, float's or Fraction's own error, for ``comma_list`` to report."""
    num, slash, den = tok.partition("/")
    return Fraction(int(num), int(den)) if slash else float(tok)


def comma_list(text: str, parse=str) -> list:
    """``parse`` of each comma-separated token of ``text``, stripped; empty
    tokens are skipped.  No token at all, or a ValueError or ArithmeticError
    of ``parse`` (such as '1/0', or an 'a/b' past float64), is a
    ParameterError that quotes ``text``."""
    toks = [t.strip() for t in text.split(",") if t.strip()]
    if not toks:
        raise ParameterError(f"empty list {text!r}")
    try:
        return [parse(t) for t in toks]
    except (ValueError, ArithmeticError) as exc:
        raise ParameterError(f"bad list {text!r}: {exc}") from None


def _reals(text: str) -> tuple[float, ...]:
    """A comma list of reals; an 'a/b' token is read exactly, then rounded."""
    return tuple(comma_list(text, lambda t: float(parse_gain_token(t))))


# config schema: key -> parser
CONFIG_KEYS = {
    "k": int,
    "epsilon": float,
    "p_grid": _reals,
    "trials": int,
    "n": int,
    "master_seed": int,
    "variance": float,
    "h": _reals,
    "h_e": _reals,
    "bin_width": float,
    "leakage_samples": int,
}


def parse_config(path: str, required: tuple[str, ...]) -> dict:
    values: dict = {}
    for key, (lineno, val) in key_values(read_text(path), path).items():
        if key not in CONFIG_KEYS:
            raise ParameterError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = parse_value(path, key, lineno, CONFIG_KEYS[key], val)
    missing = [k for k in required if k not in values]
    if missing:
        raise ParameterError(f"{path}: missing required key(s) {missing}")
    return values


def emit(args, summary: list[str], csv: str, **fields) -> None:
    """The one place a command's output leaves the program: the ``summary``
    lines, the CSV and a sidecar of the command, version, wall time since
    ``args.t0`` and ``fields``.  A sidecar line that ``key_values`` does not
    read back as written (a line break, a '#' or surrounding whitespace in
    a value) is a ParameterError before anything is printed or written.
    With --out both files are written (opened for appending, truncated only
    once both are open; a failed write removes only the files this call
    created, never a file or symlink that existed before), and then the
    summary and a 'wrote' line print.  Without --out all three print."""
    meta = {"command": args.command, "version": __version__,
            "wall_time_s": f"{time.monotonic() - args.t0:.3f}", **fields}
    for key, value in meta.items():
        with contextlib.suppress(ParameterError):  # a value that splits its line
            if key_values(f"{key} = {value}\n", ".meta") == {key: (1, str(value))}:
                continue
        raise ParameterError(f"the .meta value of {key!r} does not read back as written: {value!r}")
    sidecar = "# secmac metadata v1\n" + "".join(f"{k} = {v}\n" for k, v in meta.items())
    text = "".join(f"{line}\n" for line in summary)
    if args.out:
        paths = (args.out, args.out + ".meta")
        created = [path for path in paths if not os.path.lexists(path)]
        try:
            with contextlib.ExitStack() as stack:  # both open before either is truncated
                files = [stack.enter_context(open(p, "a", encoding="utf-8", newline="\n"))
                         for p in paths]
                for fh, content in zip(files, (csv, sidecar)):
                    if os.fstat(fh.fileno()).st_size:  # a new file, a pipe or a device has none
                        fh.truncate(0)
                    fh.write(content)
        except OSError as exc:  # a missing directory, a directory, no permission
            for done in created:  # leave no new CSV without its sidecar
                with contextlib.suppress(FileNotFoundError):  # not created: its open failed
                    os.remove(done)
            path = exc.filename or args.out
            raise ParameterError(f"cannot write {path}: {exc.strerror}") from None
        sys.stdout.write(f"{text}wrote {args.out} and {args.out}.meta\n")
    else:  # three writes: an unbuffered stdout reports a write cut short only at the next
        sys.stdout.writelines((text, csv, sidecar))


def cmd_params(args) -> None:
    if args.p_tilde is not None:
        if args.p is not None or args.h_e is not None:
            raise ParameterError("give either --p-tilde or (--p and --h-e), not both")
        p_tilde = args.p_tilde
        policy = "P_tilde supplied directly"
    else:
        if args.p is None or args.h_e is None:
            raise ParameterError("need --p-tilde, or both --p and --h-e")
        h_e = _reals(args.h_e)
        gains = ChannelGains(h=(1.0,) * len(h_e), h_e=h_e)
        p_tilde = effective_power(gains, args.p)
        policy = "P_tilde = min_k h_e[k]^2 * P"
    Q, A = select_params(p_tilde, args.k, args.eps)
    ok = A * A * Q * Q <= p_tilde
    summary = [f"policy: {policy}", f"P_tilde = {fmt(p_tilde)}", f"Q = {Q}", f"A = {fmt(A)}",
               f"power check: A^2 Q^2 = {fmt(A * A * Q * Q)} <= P_tilde: {ok}"]
    emit(args, summary,
         csv_text("P_tilde,K,epsilon,Q,A,power_ok", [(p_tilde, args.k, args.eps, Q, A, ok)]))


def cmd_dmin(args) -> None:
    g = normalize_ratios(comma_list(args.gains, parse_gain_token))
    rc = received_constellation(g, args.q, args.a, index=False)
    row = (args.q, args.a, rc.points.size, rc.gamma.value, rc.d_min)
    summary = [f"points = {rc.points.size}", f"gamma = {rc.gamma.value}", f"d_min = {fmt(rc.d_min)}"]
    emit(args, summary, csv_text("q,a,points,gamma,d_min", [row]),
         gains=",".join(comma_list(args.gains)), exact=int(g.exact))


# Config-file commands: name -> (required keys, runner name); the runner is
# looked up at call time, so a wrapper on this module's attribute sees every call.
RUNS = {
    "sweep": (("k", "epsilon", "p_grid", "trials"), "run_symbol_sweep"),
    "block": (("k", "epsilon", "p_grid", "trials", "n"), "run_block_trials"),
    "leakage": (("k", "epsilon", "p_grid"), "run_leakage"),
}


def cmd_run(args) -> None:
    required, runner = RUNS[args.command]
    values = parse_config(args.config, required)
    if args.seed is not None:
        values["master_seed"] = args.seed
    cfg = SimConfig(K=values.pop("k"), P_grid=values.pop("p_grid"), **values)
    report = globals()[runner](cfg)
    emit(args, [], report.to_csv(), **report.metadata())


def cmd_kg(args) -> None:
    profile = kg_profile(_reals(args.gains), args.eps, comma_list(args.n_list, int))
    emit(args, [f"c_hat = {fmt(profile.c_hat)}"], csv_text("N,m,m_scaled", profile.rows),
         gains=",".join(comma_list(args.gains)), epsilon=fmt(args.eps), c_hat=fmt(profile.c_hat))


def cmd_region(args) -> None:
    spec = load_mac_spec(args.spec)
    region = achievable_region(spec)
    rows = [*region.constraints, ((1 << region.K) - 1, region.sum_bound)]
    emit(args, [f"sum_bound = {fmt(region.sum_bound)}"],
         csv_text("subset_bitmask,bound_bits", rows), spec=args.spec)


def cmd_entropy(args) -> None:
    bits = sum_entropy(args.k, args.q)
    emit(args, [f"sum_entropy = {fmt(bits)} bits"], csv_text("k,q,bits", [(args.k, args.q, bits)]))


# name -> (help, handler, options), an option being (flag, type, required, help)
RUN_OPTIONS = (("--config", None, True, None), ("--seed", int, False, "master seed override"))
COMMANDS = {
    "params": ("power-split parameters (Q, A)", cmd_params, (
        ("--p-tilde", float, False, None), ("--p", float, False, None),
        ("--h-e", None, False, "comma list of eavesdropper gains"),
        ("--k", int, True, None), ("--eps", float, True, None))),
    "dmin": ("received constellation and minimum distance", cmd_dmin, (
        ("--gains", None, True, "comma list; a/b tokens are exact"),
        ("--q", int, True, None), ("--a", float, True, None))),
    "sweep": ("Monte Carlo symbol error sweep over a power grid", cmd_run, RUN_OPTIONS),
    "block": ("full random-binning block trials", cmd_run, RUN_OPTIONS),
    "leakage": ("plug-in eavesdropper leakage estimate", cmd_run, RUN_OPTIONS),
    "kg": ("Khintchine-Groshev linear-form profile", cmd_kg, (
        ("--gains", None, True, None), ("--eps", float, True, None),
        ("--n-list", None, True, "comma list of search bounds N"))),
    "region": ("achievable secrecy rate region of a discrete MAC", cmd_region,
               (("--spec", None, True, "channel spec file"),)),
    "entropy": ("exact entropy of a sum of uniform inputs", cmd_entropy,
                (("--k", int, True, None), ("--q", int, True, None))),
}


def _cell_value(cell: str) -> int | float | str:
    """A CSV cell as the value ``fmt`` renders: an int, else a float, else text."""
    for parse in (int, float):
        try:
            return parse(cell)
        except ValueError:
            pass
    return cell


def cmd_check(args) -> None:
    """Re-parse a CSV produced by this tool and diff it against ``csv_text``'s
    re-emit of the parsed cells; the header's cells must be identifiers, and
    each row must have as many.  The first fault found is a ParameterError."""
    original = read_text(args.file, newline="")  # a \r\n must not pass as \n
    lines = original.splitlines()
    if not lines:
        raise ParameterError(f"{args.file} is empty")
    header = lines[0].split(",")
    # an empty line has no cells
    rows = [[_cell_value(c) for c in line.split(",")] if line else [] for line in lines[1:]]
    canonical = csv_text(lines[0], rows)
    faults = [f"header cell {c!r} is not an identifier" for c in header if not c.isidentifier()]
    faults += [f"line {i} has {len(row)} cells, the header {len(header)}"
               for i, row in enumerate(rows, 2) if len(row) != len(header)]
    faults += [f"line {i} differs\n  file:      {a}\n  canonical: {b}"
               for i, (a, b) in enumerate(zip(lines, canonical.splitlines()), 1) if a != b]
    if canonical != original:  # when no line differs, a line break does
        faults.append("a line break other than \\n" if original[-1] in "\r\n" else "no final newline")
    if faults:
        raise ParameterError(f"{args.file}: {faults[0]}")
    print(f"{args.file}: ok ({len(rows)} data row(s), zero diffs)")


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
    for name, (help_text, func, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--out", default=None, help="write CSV here (+ .meta sidecar)")
        for flag, type_, required, option_help in options:
            p.add_argument(flag, type=type_, required=required, help=option_help)
        p.set_defaults(func=func)

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
                comma_list(argv[i], parse_gain_token)
            except ParameterError:
                continue
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = build_parser().parse_args(argv)
    args.t0 = time.monotonic()
    try:
        if getattr(args, "out", None) == "":  # not stdout: that is no --out at all
            raise ParameterError("--out needs a file name")
        args.func(args)
        sys.stdout.flush()  # a closed pipe or a full disk shows here at the latest
        return 0
    except (ParameterError, SizeCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, SizeCapError) else 2
    except OSError as exc:  # files fail as ParameterError, so stdout failed
        print(f"error: cannot write stdout: {exc.strerror}", file=sys.stderr)
        with contextlib.suppress(OSError, ValueError):  # an in-memory stdout has no descriptor
            fd, devnull = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)  # the interpreter's final flush then prints nothing
            os.close(devnull)
        return 2


if __name__ == "__main__":
    sys.exit(main())
