"""One benchmark pass, in a fresh process: read the seeded plan's commands
from the stored reference, write their input files, issue them one after
another through ``secmac.cli.main``, then round-trip every CSV through
``secmac check``.  A calibration slice runs before the first command,
after every ``CAL_EVERY`` commands and after the last; its times are
reported so the parent can scale the pass to a reference machine speed,
and they are excluded from ``wall_s``.

    python3 perfbench/worker.py --workload W --seed N --dir PASS_DIR --trace 0|1 --t0 T

``--t0`` is the parent's ``time.perf_counter()`` just before it started
this process (the same monotonic clock in every process), so set-up time
is measured from process start to the first command.  The pass writes
``result.json`` (and ``spans.json`` when traced) into ``PASS_DIR``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

import numpy

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def run_command(main, argv) -> tuple[int | None, str | None]:
    """Run one CLI command in process; (exit code, error) with output muted."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return main(list(argv)), None
        except SystemExit as exc:
            return (exc.code if isinstance(exc.code, int) else 1), "SystemExit"
        except Exception as exc:  # a raising command is a counted failure, not a crash
            return None, f"{type(exc).__name__}: {exc}"


CAL_EVERY = 10  # commands between calibration slices
CAL_ARRAY = numpy.random.default_rng(0).random(100_000)


def calibration_slice() -> float:
    """Seconds for a fixed mix of interpreter loops, small numpy calls and a
    large sort: a probe of the machine's current speed."""
    t = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    x = numpy.zeros(4)
    for _ in range(4_000):
        x = numpy.rint(x * 0.5 + 1.0)
    for _ in range(3):
        numpy.sort(CAL_ARRAY)
    return time.perf_counter() - t


def write_inputs(commands, directory: str) -> None:
    for cmd in commands:
        for name, text in cmd.files:
            with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
                fh.write(text)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args()

    sys.path[:0] = [SRC, HERE]
    from secmac import cli

    import workloads

    with open(os.path.join(HERE, "reference", f"{args.workload}.json"), encoding="utf-8") as fh:
        commands = workloads.plan(args.workload, args.seed, json.load(fh)["commands"])
    os.chdir(args.dir)
    write_inputs(commands, ".")
    entry = cli.main
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        entry = tracer.wrap(spans.ROOT, cli.main)

    t_ready = time.perf_counter()
    calibration = [calibration_slice()]
    latencies, codes, errors = [], [], []
    t_first = time.perf_counter()
    for i, cmd in enumerate(commands):
        if i and i % CAL_EVERY == 0:
            calibration.append(calibration_slice())
        if tracer is not None:
            tracer.cmd = i
        t = time.perf_counter()
        rc, err = run_command(entry, cmd.argv)
        latencies.append(time.perf_counter() - t)
        codes.append(rc)
        errors.append(err)
    t_last = time.perf_counter()
    calibration.append(calibration_slice())
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer is not None:
        tracer.uninstall()
        with open("spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    checks = [
        run_command(cli.main, ["check", cmd.out])[0] if rc == 0 else None
        for cmd, rc in zip(commands, codes)
    ]
    result = {
        "setup_s": t_ready - args.t0,
        "wall_s": t_last - t_first - sum(calibration[1:-1]),
        "calibration_s": calibration,
        "rss_kb": rss_kb,
        "commands": [
            {"id": c.id, "kind": c.kind, "work": c.work, "latency_s": lat, "rc": rc,
             "error": err, "check_rc": chk}
            for c, lat, rc, err, chk in zip(commands, latencies, codes, errors, checks)
        ],
        "numpy": numpy.__version__,
        "secmac_file": os.path.relpath(cli.__file__, os.path.dirname(SRC)),
    }
    with open("result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
