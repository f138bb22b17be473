"""Time the per-layer baseline cases listed in ROADMAP item 1.

    python3 perfbench/roadmap_cases.py

Prints one line per case with the median of ``REPEATS`` runs,
BLAS pinned to one thread.  Inputs (such as the 65,536-row codebook) are
built at import and not timed.  It is a cross-check of the listed baselines,
not part of the benchmark's reported metrics.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
import time
from fractions import Fraction

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from secmac import (  # noqa: E402
    NormalizedGains,
    SimConfig,
    build_codebook,
    min_linear_form,
    received_constellation,
    run_block_trials,
    run_leakage,
    run_symbol_sweep,
    sum_entropy,
)

REPEATS = 3
ROOT2 = (math.sqrt(2), 1.0)
CASES = (
    ("run_block_trials, K=2, n=4, 10k trials", "2.16 s",
     lambda: run_block_trials(SimConfig(K=2, epsilon=0.5, P_grid=(1e6,), trials=10_000, n=4,
                                        h=ROOT2, h_e=(1.0, 1.0)))),
    ("run_symbol_sweep, 1M trials x 3 powers, K=2", "0.56 s",
     lambda: run_symbol_sweep(SimConfig(K=2, epsilon=0.5, P_grid=(1e2, 1e4, 1e6),
                                        trials=1_000_000, h=ROOT2, h_e=(1.0, 1.0)))),
    ("run_leakage, 100k noisy samples", "0.16 s",
     lambda: run_leakage(SimConfig(K=2, epsilon=0.5, P_grid=(1e6,), h=ROOT2, h_e=(1.0, 1.0),
                                   leakage_samples=100_000))),
    ("float constellation, K=3, Q=60", "0.22 s",
     lambda: received_constellation(NormalizedGains(g=(math.sqrt(2), math.sqrt(3), 1.0)), 60, 1.0)),
    ("exact constellation, K=3, Q=20", "1.1-1.2 s",
     lambda: received_constellation(
         NormalizedGains(g=(Fraction(7, 5), Fraction(17, 10), Fraction(1))), 20, 1.0)),
    ("Codebook.duplicate_stats at 65,536 sequences", "1.8 s",
     build_codebook(4, 16, 256, 256, 7).duplicate_stats),
    ("sum_entropy(16, 100)", "0.32 s", lambda: sum_entropy(16, 100)),
    ("min_linear_form([sqrt 2], 1e5)", "0.43 s", lambda: min_linear_form([math.sqrt(2)], 100_000)),
)


def main() -> int:
    for name, listed, fn in CASES:
        times = []
        for _ in range(REPEATS):
            t = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t)
        print(f"{name:48s} listed {listed:>9s}  measured {statistics.median(times):.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
