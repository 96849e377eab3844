#!/usr/bin/env python3
"""Build and run the dtm simulator benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

Builds the `dtm-perfbench` binary (release, offline) and runs each
workload in its own single-threaded process. The binary prints a report
and, as its last line, one JSON object with `correct`, `attempted`,
`failed` and `metrics`. This script passes that output through, checks
that the metric names are exactly the ones `BENCHMARK.json` lists for the
mode, and exits nonzero if the build, the run or a check fails.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["batch-hypercube8", "stream-geo10k", "soak-clique8-dist"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def build():
    """Build the binary; return its path, or None on failure."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=BUILD_TIMEOUT_S)
    except (subprocess.SubprocessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(ROOT, target, "release", "dtm-perfbench")


def expected_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    """Problems with the binary's JSON result line, as strings."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return [f"unexpected result keys {sorted(result)}"]
    problems = [f"bad metric name {n!r}" for n in result["metrics"] if not NAME.match(n)]
    want = expected_names(trace)
    if sorted(result["metrics"]) != sorted(want):
        missing = sorted(set(want) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(want))
        problems.append(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    if result["correct"] is not True:
        problems.append("a correctness check failed")
    return problems


def run_one(binary, workload, args):
    cmd = [
        binary, "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    env = dict(os.environ, RAYON_NUM_THREADS="1")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    except OSError as e:
        return fail(f"{workload}: cannot start the benchmark: {e}")
    lines = proc.stdout.splitlines()
    print("\n".join(lines[:-1]), flush=True)
    if proc.returncode != 0 or not lines:
        if lines:
            print(lines[-1])
        return fail(f"{workload}: exited with code {proc.returncode}")
    problems = check_result(lines[-1], args.trace == 1)
    for p in problems:
        fail(f"{workload}: {p}")
    if problems:
        return 1
    print(lines[-1], flush=True)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        return fail("--seed must be >= 0 and --seconds >= 1")
    binary = build()
    if binary is None:
        return 1
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for w in workloads:
        status = run_one(binary, w, args) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
