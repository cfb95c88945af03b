#!/usr/bin/env python3
"""Build bench_e2e from source and run it: the repository benchmark.

    python3 bench/e2e/run.py --workload fib --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first call configures and builds into
$CARGO_TARGET_DIR/e2e (default .bench_build/e2e); later calls rebuild only
what changed. Build output goes to stderr; stdout carries bench_e2e's lines,
the last one the result object. The metric names of that object are
checked against BENCHMARK.json (end_to_end for --trace 0, per_layer for
--trace 1), so the table in the binary and the file cannot drift apart.
Exits nonzero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    return target.resolve() / "e2e"


def build(out):
    if not (ROOT / "src" / "core" / "runtime.hpp").is_file():
        fail(f"no runtime sources under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (out / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release", *gen],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(out), "--target", "bench_e2e",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)


def commit():
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    return os.environ.get("BENCH_COMMIT", "unknown")


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", action="store_true",
                    help="exit nonzero when any op failed")
    args = ap.parse_args()

    out = build_dir()
    try:
        build(out)
    except subprocess.CalledProcessError as e:
        fail(f"build failed: {e}")
    spans = out / "spans"
    spans.mkdir(exist_ok=True)
    cmd = [str(out / "bench_e2e"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--spans-dir", str(spans),
           "--commit", commit()]
    if args.check:
        cmd.append("--check")
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"bench_e2e ran longer than {RUN_TIMEOUT_S} s")
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        fail(f"bench_e2e exited with {r.returncode}")
    result = json.loads(lines[-1])
    if args.workload != "all":
        got, want = set(result["metrics"]), expected_metrics(args.trace)
        if got != want:
            fail(f"metrics differ from BENCHMARK.json: missing "
                 f"{sorted(want - got)}, extra {sorted(got - want)}")
    sys.stdout.write(r.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
