#!/usr/bin/env python3
"""Builds the pipeline benchmark from source and runs one workload.

Usage (from the repository root):

    python3 pipebench/run.py --workload fleet_dense --seed 1 --seconds 45 --trace 0

--seconds is required (BENCHMARK.json's run_seconds is the measured
setting); --seed defaults to 1 and --trace to 0. The build goes to
.bench_build/pipebench (Release, incremental), run data to
.bench_build/data, and the span log of a traced run to .bench_build/traces.
The benchmark binary prints a human-readable table and, as its last line,
one JSON object; this script passes both through and exits with the
binary's status. A failed build exits non-zero without printing a result.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".bench_build"
WORKLOADS = ("fleet_dense", "fleet_sparse", "query_mixed")


def build() -> Path:
    build_dir = OUT / "pipebench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "--target", "pipeline_bench",
         "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.exit(f"run.py: build step failed: {' '.join(cmd)}")
    return build_dir / "pipeline_bench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    traces = OUT / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--dir", str(OUT / "data" / tag),
           "--trace-out", str(traces / f"{tag}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
