#!/usr/bin/env python3
"""Build and run the pagedsm benchmark (see README.md in this directory).

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

With --workload all (the default) every workload runs in its own process
and a last JSON line sums them up, with metrics named <workload>.<metric>.

Builds the benchmark (Release) from this checkout's sources under
$CARGO_TARGET_DIR, or .bench_build at the checkout root when that is unset,
then runs it. Build output goes to stderr; the report goes to
stdout, and its last line is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 1 the span trace is written to
<build dir>/traces/<workload>-seed<seed>.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Upper limits, in seconds, on one workload's run and on the build.
RUN_LIMIT_S = 175
BUILD_LIMIT_S = 840


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure once, then bring the perfbench binary up to date."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_LIMIT_S, check=False)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(build_dir, "perfbench")


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail(f"no pagedsm sources at {ROOT}")
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    binary = build(os.path.join(build_dir, "perfbench"))

    if args.workload != "all":
        sys.exit(run_one(binary, args.workload, args, build_dir)[0])
    # Every workload in its own process, so that each peak_rss_mb is its own.
    listed = subprocess.run([binary, "--list"], capture_output=True,
                            text=True, check=True).stdout.split()
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in listed:
        code, result = run_one(binary, workload, args, build_dir)
        worst = worst or code
        if result is None:
            total["correct"] = False
            continue
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(total))
    sys.exit(worst)


def run_one(binary, workload, args, build_dir):
    """Runs one workload, relaying its report; returns (exit code, JSON)."""
    command = [binary, "--workload", workload,
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--commit", commit()]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    if args.trace == "1":
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        seed = "default" if args.seed is None else str(args.seed)
        command += ["--trace-out",
                    os.path.join(traces, f"{workload}-seed{seed}.json")]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_LIMIT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_LIMIT_S} s")
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return done.returncode or 1, None


if __name__ == "__main__":
    main()
