#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload central_batch --seed 1 \
        --seconds 12 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) inside the checkout. Build output goes to
standard error; the last line of standard output is the result object
of perfbench_main. With --trace 1 the spans are written as Chrome
trace-event JSON to <build>/traces/<workload>-seed<seed>.json. See
perfbench/README.md.
"""

import argparse
import os
import pathlib
import subprocess
import sys

WORKLOADS = ("central_batch", "dist_batch", "service_churn", "verify_sweep")
DEFAULT_SEED = 20050613
BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Longest a single measuring run may take before it is stopped.
RUN_TIMEOUT_S = 175


def build_dir():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out):
    """Configures and builds perfbench_main; returns its path."""
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, cwd=ROOT)
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "perfbench_main",
         "-j", jobs],
        check=True, stdout=sys.stderr, cwd=ROOT)
    return out / "perfbench_main"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        trace_file = traces / f"{args.workload}-seed{args.seed}.json"
        command += ["--trace-out", str(trace_file)]
        print(f"perfbench: trace -> {trace_file}", file=sys.stderr)
    sys.stdout.flush()
    try:
        return subprocess.run(command, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
