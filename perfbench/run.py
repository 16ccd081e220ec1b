"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. slowreg is imported from `src/` of that
checkout and from nowhere else; without it the run exits with code 2 and
prints no result. BLAS is pinned to one thread before numpy is imported.
The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics` (the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`). The full record of
the run goes to `perfbench/results/`.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("exact_weak", "fit_strong", "gridsearch_large")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="slowreg benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    started = time.perf_counter()  # the --seconds budget counts from here
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "slowreg" / "__init__.py").is_file():
        print(f"error: no slowreg sources under {src}", file=sys.stderr)
        return 2
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"
    sys.path.insert(0, str(src))

    import harness  # imports numpy, so only after the thread pinning

    summary = harness.run(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT, started
    )
    harness.print_report(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
