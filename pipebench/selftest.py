#!/usr/bin/env python3
"""The pipeline benchmark's own test.

    python3 pipebench/selftest.py

For every workload it checks that:
  * two traced runs with the same seed agree exactly on every counter the
    benchmark marks exact (its "exact counters:" line);
  * a seed the benchmark does not use by default passes every content
    check, traced and untraced, with no failed operation.
Each run is short (--seconds 1); the whole test takes a few minutes.
Exits non-zero on the first disagreement or failed check.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("fleet_dense", "fleet_sparse", "query_mixed")
DEFAULT_SEED = 1        # run.py's default
UNSEEN_SEED = 90210     # used nowhere else


def run(workload, seed, trace):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"FAIL {workload} seed {seed} trace {trace}: "
                         f"exit {done.returncode}\n{done.stdout}{done.stderr}")
    result = json.loads(lines[-1])
    exact = []
    for line in lines:
        if line.startswith("exact counters:"):
            exact = line.split(":", 1)[1].split()
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"FAIL {workload} seed {seed} trace {trace}: "
                         f"correct={result['correct']} "
                         f"failed={result['failed']}")
    return result["metrics"], exact


def main():
    for workload in WORKLOADS:
        first, exact = run(workload, DEFAULT_SEED, 1)
        second, _ = run(workload, DEFAULT_SEED, 1)
        if not exact:
            raise SystemExit(f"FAIL {workload}: no exact counters listed")
        for name in exact:
            a, b = first[name]["value"], second[name]["value"]
            if a != b:
                raise SystemExit(f"FAIL {workload}: exact counter {name} "
                                 f"differs between same-seed runs: {a} != {b}")
        print(f"ok   {workload}: {len(exact)} exact counters repeat")
        for trace in (0, 1):
            run(workload, UNSEEN_SEED, trace)
        print(f"ok   {workload}: seed {UNSEEN_SEED} passes every check")
    print("selftest passed")


if __name__ == "__main__":
    main()
