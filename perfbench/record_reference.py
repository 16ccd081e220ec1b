"""Record the current slowreg's answers for later benchmark runs to match.

    python3 perfbench/record_reference.py --workload gridsearch_large --seeds 0-19

Runs each operation of the workload once per seed, through the same code
path as a benchmark run, and stores the answers in perfbench/reference.json
under the workload and seed: the full 21-row table for `gridsearch_large`,
the certified objective of every instance for `fit_strong`. A benchmark run
whose seed is recorded then requires its answers to match within 1e-9.
Record only from a commit whose answers are known to be right.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

from run import BLAS_THREAD_VARS

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def answers(kind: str, outcome: dict) -> dict:
    report = outcome["report"]
    if outcome["exit"] != 0:
        raise RuntimeError(f"operation exited with {outcome['exit']}")
    if kind == "gridsearch":
        return {"table": [[r["lambda_beta"], r["lambda_delta"], r["holdout_r2"]]
                          for r in report["table"]]}
    solver = report["solver"]
    if solver["status"] != "optimal":
        return {}
    return {"objective_value": solver["objective_value"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fit_strong", "gridsearch_large"))
    parser.add_argument("--seeds", required=True, help="one seed or a range like 0-19")
    args = parser.parse_args(argv)
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    workload = harness.WORKLOADS[args.workload]
    path = harness.REFERENCE_FILE
    recorded = json.loads(path.read_text()) if path.is_file() else {}
    workdir = ROOT / "perfbench" / "work" / f"record-{args.workload}"
    for seed in parse_seeds(args.seeds):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            mods = harness.fresh_slowreg()
            cases = harness.make_cases(mods, workload, seed, workdir)
            states = harness.setup(mods, workload, cases)
            ops = harness.make_ops(mods, workload, cases, states, workdir)
            per_case = [answers(workload.kind, op()[1]) for op in ops]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        recorded.setdefault(args.workload, {})[str(seed)] = per_case
        path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
        print(f"{args.workload} seed {seed}: recorded {len(per_case)} answers", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
