"""Seeded CLI-level benchmark of the secmac toolkit.

    python3 perfbench/run.py --workload campaign|block|analysis --seed N --seconds S --trace 0|1

One closed-loop client: each pass is a fresh worker process (BLAS pinned
to one thread) that issues the workload's commands one after another
through ``secmac.cli.main``.  Passes repeat, one at a time, until the
next one would run past ``--seconds``; every timing is the median over
passes, and latency percentiles pool the commands of all passes.
Timings are reported at a reference machine speed: the worker times a
fixed calibration slice before, during and after its commands, and each
pass's seconds are scaled by ``CAL_REF_S`` over its mean slice time.  The
shared machine's speed drifts by tens of percent over minutes; the
scaling cancels that drift, and the raw seconds are printed in the
environment line.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones.  Every command's CSV is checked against the stored
reference (see ``checks.py``); the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import spans  # noqa: E402
from summary import tail_percentile  # noqa: E402

WORKLOADS = ("campaign", "block", "analysis")
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUN_LIMIT_S = 170.0
# Median calibration slice time on the 2-core Intel Xeon VM the benchmark was
# defined on; timings are reported at that reference speed.
CAL_REF_S = 0.05


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "secmac", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_pass(workload: str, seed: int, trace: int, workdir: str, deadline: float) -> dict:
    os.makedirs(workdir)
    env = {**os.environ, **BLAS_ENV}
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--dir", workdir, "--trace", str(trace)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass exceeded the {RUN_LIMIT_S:.0f} s run limit") from None
    duration = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(os.path.join(workdir, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    result["duration_s"] = duration
    result["trace"] = trace
    result["outputs"] = {}
    for c in result["commands"]:
        path = os.path.join(workdir, f"{c['id']}.csv")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                result["outputs"][c["id"]] = fh.read()
    if trace:
        with open(os.path.join(workdir, "spans.json"), encoding="utf-8") as fh:
            result["spans"] = json.load(fh)
    shutil.rmtree(workdir)
    return result


def verify(result: dict, reference: dict) -> tuple[int, int, list[str]]:
    """(failed, byte-identical, reasons) over one pass's commands."""
    failed = identical = 0
    reasons = []
    for c in result["commands"]:
        ref = reference.get(c["id"])
        csv_text = result["outputs"].get(c["id"])
        if c["rc"] != 0 or c["error"]:
            reason = f"exit {c['rc']} {c['error'] or ''}".strip()
        elif c["check_rc"] != 0:
            reason = "secmac check failed"
        elif ref is None or csv_text is None:
            reason = "no reference or no output"
        else:
            reason = checks.compare(c["kind"], ref, csv_text)
            identical += csv_text == ref["csv"]
        if reason:
            failed += 1
            reasons.append(f"{c['id']}: {reason}")
    return failed, identical, reasons


def speed_factor(p: dict) -> float:
    """Reference-speed seconds per measured second for one pass: the
    reference slice time over the pass's mean calibration slice time."""
    cal = p["calibration_s"]
    return CAL_REF_S * len(cal) / sum(cal)


def end_to_end(passes: list[dict], normalize: bool = True) -> dict:
    """Per-pass medians, except latency percentiles, which pool every
    command of every pass."""
    factors = [speed_factor(p) if normalize else 1.0 for p in passes]

    def per_pass(fn):
        return median([fn(p, f) for p, f in zip(passes, factors)])

    latencies = [c["latency_s"] * f for p, f in zip(passes, factors) for c in p["commands"]]
    return {
        "setup_s": (per_pass(lambda p, f: p["setup_s"] * f), "s"),
        "wall_s": (per_pass(lambda p, f: p["wall_s"] * f), "s"),
        "cmd_s_p50": (tail_percentile(latencies, 0.5), "s"),
        "cmd_s_p90": (tail_percentile(latencies, 0.9), "s"),
        "trials_per_s": (per_pass(lambda p, f: sum(c["work"] for c in p["commands"])
                                  / (p["wall_s"] * f)), "1/s"),
        "peak_rss_mb": (per_pass(lambda p, f: p["rss_kb"] / 1024.0), "MB"),
    }


def per_layer(passes: list[dict], identical: int, attempted: int) -> dict:
    """Layer metrics of the traced pass with the median traced command time,
    so that its layer self times add up to its command time."""
    traced = [p for p in passes if p["trace"]]
    plain = [p for p in passes if not p["trace"]]
    per = sorted((spans.layer_metrics(p["spans"]) for p in traced),
                 key=lambda m: m["trace.command_s"])
    chosen = per[(len(per) - 1) // 2]
    out = {}
    for name, unit, *_ in spans.METRICS:
        if name in chosen:
            out[name] = (chosen[name], unit)
        else:
            print(f"metric {name} absent: its import sites are missing", file=sys.stderr)
    out["cli.csv_identical_ratio"] = (identical / attempted, "ratio")
    out["trace.overhead_ratio"] = (
        median([p["wall_s"] * speed_factor(p) for p in traced])
        / median([p["wall_s"] * speed_factor(p) for p in plain]), "ratio")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S

    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    if not os.path.exists(os.path.join(ROOT, "src", "secmac", "__init__.py")):
        print(f"error: no secmac sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference", f"{args.workload}.json"), encoding="utf-8") as fh:
        reference = json.load(fh)["commands"]

    workroot = os.path.join(HERE, ".work", f"run-{os.getpid()}")
    passes: list[dict] = []
    try:
        while True:
            trace = args.trace and len(passes) % 2 == 1
            passes.append(run_pass(args.workload, args.seed, int(trace),
                                   os.path.join(workroot, str(len(passes))), deadline))
            kinds = {p["trace"] for p in passes}
            if args.trace and len(kinds) < 2:
                continue
            elapsed = time.perf_counter() - start
            if elapsed + median([p["duration_s"] for p in passes]) > args.seconds:
                break
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(os.path.join(HERE, ".work"), ignore_errors=True)

    attempted = failed = identical = 0
    for p in passes:
        f, i, reasons = verify(p, reference)
        attempted += len(p["commands"])
        failed += f
        identical += i
        for reason in reasons[:5]:
            print(f"check failed: {reason}", file=sys.stderr)
    untraced = [p for p in passes if not p["trace"]]
    if args.trace:
        metrics = per_layer(passes, identical, attempted)
        os.makedirs(os.path.join(HERE, ".out"), exist_ok=True)
        with open(os.path.join(HERE, ".out", f"{args.workload}.spans.json"), "w",
                  encoding="utf-8") as fh:
            json.dump([p["spans"] for p in passes if p["trace"]][-1], fh)
    else:
        metrics = end_to_end(untraced)

    env = {
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "pass_wall_s": [round(p["wall_s"], 3) for p in passes],
        "pass_speed_factor": [round(speed_factor(p), 4) for p in passes],
        "raw": {k: v for k, (v, _) in end_to_end(untraced, normalize=False).items()} if untraced else {},
        "commands_per_pass": len(passes[0]["commands"]),
        "clients": 1,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": passes[0]["numpy"],
        "blas_threads": BLAS_ENV,
        "secmac": passes[0]["secmac_file"],
    }
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
