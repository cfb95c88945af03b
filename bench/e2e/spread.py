#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 bench/e2e/spread.py [--runs 10] [--seconds 10] [--workload W ...]

Runs run.py --runs times per workload, each with another seed, and prints
for every end-to-end metric the median of the runs and the spread: the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median. A spread should stay below a third of the
metric's bound in BENCHMARK.json; the table marks those that do not
(setup_s is compared median to median, not by spread). The last line is
the whole table as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def run(workload, seed, seconds):
    r = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                        workload, "--seed", str(seed), "--seconds",
                        str(seconds), "--trace", "0"],
                       stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(r.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"spread.py: {workload} seed {seed} failed: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", nargs="*",
                    default=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    table = {}
    for w in args.workload:
        runs = [run(w, args.first_seed + i, args.seconds)
                for i in range(args.runs)]
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if name == "setup_s" or spread < bound / 3 else "  WIDE"
            print(f"{w:14} {name:10} median {med:14.6g}  spread "
                  f"{100 * spread:6.2f}%  bound {100 * bound:5.1f}%{flag}",
                  flush=True)
            table.setdefault(w, {})[name] = {
                "median": med, "spread": spread, "values": values}
    print(json.dumps(table))


if __name__ == "__main__":
    main()
