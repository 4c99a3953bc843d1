#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <paper|frontier|corpus> --seed <n>
                             --seconds <s> --trace <0|1> [--quick]

Run from the root of a checkout. The first call configures and builds
perfbench/ (the library sources under src/ plus the benchmark program) in
Release mode into .bench_build/perfbench; later calls rebuild only what
changed. The last line of stdout is the benchmark's JSON result; build
output goes to stderr.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "etcs_perfbench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "tasks.hpp")):
        sys.exit("perfbench: library sources not found under src/; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
                       + generator, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["paper", "frontier", "corpus"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true",
                        help="reduced workload sizes (self-test)")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit(f"perfbench: build failed: {error}")

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.quick:
        command.append("--quick")
    if args.trace:
        spans = os.path.join(BUILD, f"spans-{args.workload}-seed{args.seed}.json")
        command += ["--spans-out", spans]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                                text=True)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: no result within {RUN_TIMEOUT_S} s")
    sys.stdout.write(result.stdout)
    if result.returncode != 0:
        sys.exit(f"perfbench: benchmark exited with code {result.returncode}")


if __name__ == "__main__":
    main()
