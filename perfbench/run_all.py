"""Run every workload, each in a fresh process, and print each one's report.

    python3 perfbench/run_all.py --seed 0 --seconds 60 --trace 0

Run from the repository root. Each workload runs through `perfbench/run.py`
with the same seed, length and tracing, so its table (every metric by name
with unit and direction, ops attempted and failed) and its results file are
exactly those of a single run. Exits with 1 if any run fails or reports
wrong answers.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    ok = True
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        correct = proc.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
        if not correct:
            print(f"  RUN FAILED: {name} (exit {proc.returncode})")
            ok = False
        print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
