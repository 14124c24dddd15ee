#!/usr/bin/env python3
"""Serving benchmark of the ViHOT stack.

Run from the root of a checkout:

    python3 servebench/run.py --workload fleet_moving --seed 1 \
        --seconds 20 --trace 0
    python3 servebench/run.py --self-test

Builds the library, vihotd and the harness from source (Release, under
$CARGO_TARGET_DIR or .bench_build, as <dir>/servebench), then runs one
workload. The harness prints a host fingerprint and, as its last line,
one JSON object with the verdict, the operation counts and the metrics.
Build output goes to stderr so that stdout carries only the result.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fleet_moving", "daemon_churn")
TARGETS = ("servebench", "vihotd_tool", "servebench_tests")


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    # The generator writes the Makefile last: its absence means no
    # configure has completed yet.
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  *TARGETS])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            sys.stderr.write("servebench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the harness's own tests")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(root), "servebench")
    if not build(build_dir):
        return 1
    if args.self_test:
        return subprocess.run(
            [os.path.join(build_dir, "servebench_tests")]).returncode

    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "servebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.relpath(out_dir),
           "--vihotd", os.path.join(build_dir, "vihot", "tools", "vihotd")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
