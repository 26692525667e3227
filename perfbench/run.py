#!/usr/bin/env python3
"""Build and run the fastbns repository benchmark.

    python3 perfbench/run.py --workload munin1-g2 --seed 1 --seconds 20 --trace 0

Builds perfbench (a CMake project of its own that compiles the library
from ../src) into .bench_build/perfbench at the repository root, then runs
one invocation. The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the full report goes to
<results>/<workload>-seed<seed>-trace<trace>.json, where --results
defaults to .bench_build/results. Build output goes to standard error.
"""
import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("munin1-g2", "wide-g2", "sem-fisherz", "munin1-ranks")
RUN_TIMEOUT_S = 175
JOBS = "4"


def build():
    """Configures once and rebuilds incrementally; serialized by a lock."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise RuntimeError("library sources not found at " + os.path.join(ROOT, "src"))
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                        "-j", JOBS], stdout=sys.stderr, check=True)


def source_commit():
    """The checked-out revision, or "unknown" outside a git work tree.

    The search for a repository stops at the checkout root, so nothing
    outside it is read."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (the self-check uses this)")
    parser.add_argument("--results", default=os.path.join(BUILD_ROOT, "results"),
                        help="directory for the full report")
    args = parser.parse_args()

    try:
        build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as error:
        print("perfbench: build failed: %s" % error, file=sys.stderr)
        return 1

    os.makedirs(args.results, exist_ok=True)
    report = os.path.join(args.results, "%s-seed%d-trace%d.json"
                          % (args.workload, args.seed, args.trace))
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--report", report, "--commit", source_commit()]
    if args.smoke:
        command.append("--smoke")
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
