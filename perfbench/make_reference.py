"""Regenerate the stored reference outputs of every catalog member.

    python3 perfbench/make_reference.py

Run it only at a commit whose outputs are the accepted reference: it
overwrites ``perfbench/reference/<workload>.json`` with each member's
argv, input files, work count, CSV and run time.  It stops with an error if any
member fails, since the generator must emit only commands that succeed.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from secmac import cli  # noqa: E402

import workloads  # noqa: E402
from worker import run_command, write_inputs  # noqa: E402


def build(workload: str, scratch: str) -> dict:
    entries = {}
    home = os.getcwd()
    os.chdir(scratch)
    try:
        for cmd in workloads.catalog(workload):
            write_inputs([cmd], ".")
            t = time.perf_counter()
            rc, err = run_command(cli.main, cmd.argv)
            seconds = time.perf_counter() - t
            if rc != 0:
                raise SystemExit(f"{workload} {cmd.id} {cmd.argv} failed: rc={rc} {err}")
            with open(cmd.out, encoding="utf-8") as fh:
                csv_text = fh.read()
            entries[cmd.id] = {
                "kind": cmd.kind,
                "argv": list(cmd.argv),
                "files": dict(cmd.files),
                "work": cmd.work,
                "csv": csv_text,
                "seconds": round(seconds, 4),
            }
    finally:
        os.chdir(home)
    return {"workload": workload, "catalog_seed": workloads.CATALOG_SEED, "commands": entries}


def main() -> int:
    scratch = os.path.join(HERE, ".work", "reference")
    for workload in workloads.WORKLOADS:
        os.makedirs(scratch, exist_ok=True)
        try:
            data = build(workload, scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        path = os.path.join(HERE, "reference", f"{workload}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=0, sort_keys=True)
            fh.write("\n")
        total = sum(e["seconds"] for e in data["commands"].values())
        print(f"{workload}: {len(data['commands'])} commands, {total:.1f} s -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
