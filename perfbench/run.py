#!/usr/bin/env python3
"""Builds the objalloc benchmark and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py            # the self-test, then every workload once
    python3 perfbench/run.py --test     # the self-test only

Run from the root of the repository. The build goes to .bench_build/perfbench
(CMake, Release), scratch files to .bench_build/work. The benchmark's own
output is passed through; its last line is the result JSON.
"""

import argparse
import fcntl
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(".bench_build", "work")
WORKLOADS = ["tcp_serve", "engine_zipf", "opt_ensemble"]
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds (a no-op when up to date); a lock keeps
    concurrent runs apart."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        subprocess.run(
            ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                       check=True, stdout=sys.stderr)


def run(command):
    try:
        return subprocess.run(command, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("benchmark run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--test", action="store_true")
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print("build failed: %s" % error, file=sys.stderr)
        return 1

    binary = os.path.join(BUILD, "objbench")
    if args.workload is not None:
        return run([binary, "--workload", args.workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace), "--work_dir", WORK])

    status = run([os.path.join(BUILD, "objbench_test")])
    if args.test:
        return status
    for workload in WORKLOADS:
        status = max(status, run([binary, "--workload", workload,
                                  "--seed", str(args.seed),
                                  "--seconds", str(args.seconds),
                                  "--trace", str(args.trace),
                                  "--work_dir", WORK]))
    return status


if __name__ == "__main__":
    sys.exit(main())
