#!/usr/bin/env python3
"""Builds the code under test and runs one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The build (library, pwu_serve, pwu_router and
the perfbench binary, Release) goes to $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset. Build output goes to
stderr; the benchmark's last stdout line is the result object.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def jobs():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(build_dir, targets):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", *targets,
                    "-j", str(jobs())], stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    out_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                              os.path.join(ROOT, ".bench_build"))
    build_dir = os.path.join(out_dir, "perfbench")
    try:
        if args.selftest:
            build(build_dir, ["perfbench_selftest"])
            return subprocess.run(["ctest", "--test-dir", build_dir,
                                   "--output-on-failure"]).returncode
        if not args.workload:
            parser.error("--workload is required")
        build(build_dir, ["perfbench", "pwu_serve", "pwu_router"])
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    command = [
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--bin-dir", os.path.join(build_dir, "pwu", "tools"),
        "--work-dir", os.path.join(out_dir, "work"),
        "--benchmark-json", os.path.join(ROOT, "BENCHMARK.json"),
    ]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
