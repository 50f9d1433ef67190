#!/usr/bin/env python3
"""Build and run the nemolmt benchmark.

    python3 perfbench/run.py --workload small_stream|bulk_exchange|coll_mix \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (and the runtime it
compiles from src/) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that is unset, runs the payload-checker self-test, then runs one
workload. Build output goes to stderr; stdout carries the benchmark's report
and, as its last line, the JSON result. A run whose payloads fail
verification prints its result with "correct": false and exits 1. A failed
build, self-test, refusal (NEMO_* set, too few cores), crash or timeout
exits nonzero without a result.
"""

import argparse
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_JOBS = max(1, min(4, os.cpu_count() or 1))


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def step(cmd, timeout):
    """Run a build or test command, its output on stderr; fail on error."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        fail(f"failed ({proc.returncode}): {' '.join(cmd)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["small_stream", "bulk_exchange", "coll_mix"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(os.path.abspath(target), "perfbench")
    out_dir = os.path.join(build, "results")

    step(["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
         timeout=120)
    step(["cmake", "--build", build, "-j", str(BUILD_JOBS)], timeout=600)
    step([os.path.join(build, "perfbench_selftest")], timeout=60)
    os.makedirs(out_dir, exist_ok=True)

    cmd = [os.path.join(build, "nemo_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
