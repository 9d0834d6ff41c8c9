#!/usr/bin/env python3
"""End-to-end benchmark of viewauth: builds the server and the load generator
from source, then runs one workload.

    python3 e2ebench/run.py --workload param_lookups --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout. The build goes to
$CARGO_TARGET_DIR (default .bench_build)/cmake; a run's scratch files go
to .../runs/ and are removed when it ends. The last line of standard
output is the result JSON (see README.md); build output goes to standard
error.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("param_lookups", "join_scans", "grant_churn")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.getcwd()
    bench_dir = os.path.join(root, "e2ebench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.exit("e2ebench: run from the root of a viewauth source checkout")
    out_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(out_dir, "cmake")

    def run(cmd):
        # Build output would break the result-on-the-last-line contract.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("e2ebench: build step failed: " + " ".join(cmd))

    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run(["cmake", "-S", bench_dir, "-B", build_dir, "-G", "Ninja",
             "-DCMAKE_BUILD_TYPE=Release"])
    run(["cmake", "--build", build_dir, "-j", "4", "--target",
         "viewauth_server", "e2ebench_loadgen"])

    workdir = os.path.join(out_dir, "runs",
                           "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    loadgen = os.path.join(build_dir, "e2ebench_loadgen")
    server = os.path.join(build_dir, "viewauth", "tools", "viewauth_server")
    done = subprocess.run([loadgen, "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(args.trace),
                           "--server", server, "--workdir", workdir])
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
