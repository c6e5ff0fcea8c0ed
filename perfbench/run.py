#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload serve-lookup --seed 1 --seconds 30 --trace 0

Run from the repository root. The first run configures and builds the
benchmark with the GraphRARE libraries into .bench_build/ (CMake, Release,
the root build's own options); later runs only rebuild what changed. The
benchmark binary's report goes to stdout and its last line is the one-line
JSON result. `--workload all` runs every workload in turn.

The environment is passed through untouched: the benchmark never sets
OMP_* or GRAPHRARE_* variables, so it measures the program as shipped.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["serve-sampled", "serve-lookup"]
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; exits on failure."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    steps = [] if os.path.exists(cache) else [["cmake", "-S", HERE, "-B", BUILD]]
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, cwd=ROOT, stdout=log,
                              stderr=subprocess.STDOUT).returncode != 0:
                break
        else:
            return
    # A half-configured tree would be reused by the next run.
    if os.path.exists(cache) and cmd[1] == "-S":
        os.remove(cache)
    with open(log_path) as log:
        sys.stderr.write(log.read()[-4000:])
    sys.exit("perfbench: build failed (see %s)" % log_path)


def commit():
    # The ceiling keeps git from reading a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run(workload, seed, seconds, trace):
    """Runs one workload; returns the binary's exit code."""
    workdir = os.path.join(BUILD, "run-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--workdir", workdir,
           "--commit", commit()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    codes = [run(w, args.seed, args.seconds, args.trace) for w in workloads]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
