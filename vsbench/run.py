#!/usr/bin/env python3
"""Build the varsched benchmark program from source and run one workload.

Run from the root of a varsched checkout:

    python3 vsbench/run.py --workload manufacture --seed 1 --seconds 15 \
        --trace 0

The library under src/ and the program in this directory are built with
CMake into $CARGO_TARGET_DIR (default .bench_build); the program's
standard output is passed through, and its last line is the result
object. Exits non-zero without a result when the sources are missing,
the build fails or the program fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("manufacture", "sched_nodvfs", "dvfs_costperf")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"vsbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no varsched sources at {os.path.join(ROOT, 'src')}")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(os.cpu_count() or 1, 4))
    make = ["cmake", "--build", build_dir, "-j", jobs,
            "--target", "vsbench"]
    if subprocess.run(make, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "vsbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    program = build(build_dir)
    command = [program, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--trace-file", os.path.join(build_dir, "vsbench_trace.json")]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"vsbench did not finish within {RUN_TIMEOUT_S} s")
    if result.returncode != 0:
        fail(f"vsbench exited with code {result.returncode}")


if __name__ == "__main__":
    main()
