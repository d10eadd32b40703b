#!/usr/bin/env python3
"""Builds and runs the herc::srv server benchmark.

    python3 perfbench/run.py --workload flow-exec|dashboard|replan \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The benchmark program (perfbench_srv) is compiled from perfbench/ together with the
repository's libraries under src/, into .bench_build/perfbench (Release).
The build is incremental, so only the first run in a checkout pays for it.
Runs write their scratch files under .bench_build/perfbench-runs/ and
remove them before exiting.  The last line of stdout is the JSON result;
the exit code is non-zero when the build or any output check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
JOBS = "4"


def build(target):
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", JOBS, "--target", target],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(step))
                sys.exit(1)
    return os.path.join(BUILD, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["flow-exec", "dashboard", "replan"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the benchmark's own arithmetic and exit")
    args = parser.parse_args()

    if args.self_test:
        sys.exit(subprocess.call([build("perfbench_selftest")]))
    if not args.workload:
        parser.error("--workload is required")
    binary = build("perfbench_srv")
    sys.stdout.flush()
    code = subprocess.call(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT)
    sys.exit(code)


if __name__ == "__main__":
    main()
