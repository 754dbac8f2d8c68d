#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first run configures and builds
e2ebench/ (which compiles the Tango libraries from src/) into the build
directory, $CARGO_TARGET_DIR or .bench_build; later runs only rebuild what
changed.  Build output goes to stderr, so the benchmark's last stdout line is
its JSON result.  Segment-store data and the traced run's spans stay inside
the build directory.  Exits non-zero, printing no result, when the sources or
the build are missing or broken.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("put_tcp_durable", "txn_zipf", "catchup_50us")


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(1)


def run_build_step(cmd):
    # Build logs go to stderr; stdout carries only the result.
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no Tango sources under %s/src; run from a full checkout" % root)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_build_step(["cmake", "-S", os.path.join(root, "e2ebench"),
                        "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_build_step(["cmake", "--build", build_dir, "--target", "e2ebench",
                    "-j", jobs])
    binary = os.path.join(build_dir, "e2ebench")
    if not os.access(binary, os.X_OK):
        fail("build produced no e2ebench binary")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--clients", type=int, default=None,
                        help="client threads (default 3)")
    parser.add_argument("--ops", type=int, default=None,
                        help="fixed ops per client instead of --seconds")
    parser.add_argument("--inject-wrong", action="store_true",
                        help="corrupt the state the checks compare against, "
                             "to test that they fail")
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(root, build_dir)

    traces = os.path.join(build_dir, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [binary,
           "--workload=" + args.workload,
           "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds,
           "--trace=%d" % args.trace,
           "--data-root=" + os.path.join(build_dir, "data"),
           "--trace-out=" + os.path.join(traces, args.workload + ".csv")]
    if args.clients is not None:
        cmd.append("--clients=%d" % args.clients)
    if args.ops is not None:
        cmd.append("--ops=%d" % args.ops)
    if args.inject_wrong:
        cmd.append("--inject-wrong=1")
    sys.stdout.flush()
    proc = subprocess.run(cmd)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
