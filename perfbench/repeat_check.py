"""Check that a traced run's counts repeat exactly for the same seed.

Run from the root of a checkout:

    python3 perfbench/repeat_check.py --workload check-sampling --seed 1

Runs ``run.py --trace 1`` twice and compares every count metric (calls,
F-evaluations, cells, kernel points) and the ratios made only of counts.
Exits 1 and lists the metrics that differ when any does.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

# ratios of two counts, which must repeat as exactly as the counts do
COUNT_RATIOS = ("maximize.f_evals_per_cell", "solvers.eq_calls_per_solve",
                "sumtrans.interval_maxima.calls_per_solve")


def traced_counts(workload: str, seed: int) -> dict:
    run = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    out = subprocess.run([sys.executable, run, "--workload", workload, "--seed", str(seed),
                          "--seconds", "1", "--trace", "1"],
                         check=True, capture_output=True, text=True).stdout
    metrics = json.loads(out.strip().splitlines()[-1])["metrics"]
    return {k: m["value"] for k, m in metrics.items()
            if m["unit"] == "count" or k in COUNT_RATIOS}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args()
    first = traced_counts(args.workload, args.seed)
    second = traced_counts(args.workload, args.seed)
    differ = sorted(k for k in first if first[k] != second.get(k))
    for k in sorted(first):
        print(f"{k}: {first[k]} / {second.get(k)}{'  DIFFERS' if k in differ else ''}")
    print(f"{args.workload} seed {args.seed}: "
          + (f"{len(differ)} counts differ" if differ else "all counts repeat exactly"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
