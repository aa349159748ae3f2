#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first call configures and
builds the simulator library and the driver from source into .bench_build/
(a Release build); later calls only re-check that build. The driver's last
stdout line, one JSON object, is the result and is printed as this script's
last line. Build output goes to stderr. Exits non-zero, without a result,
when the sources are missing, the build fails, or the driver fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
WORKLOADS = ("zones_spread", "master_worker", "waxman_coupled")
DRIVER_TIMEOUT_S = 175


def clean_env():
    """The benchmark runs the library defaults: drop the environment
    variables that seed engine and context settings."""
    env = dict(os.environ)
    for var in ("SG_THREADS", "SG_PARALLEL_ACTORS", "SG_PROFILE", "SG_CONTEXTS"):
        env.pop(var, None)
    return env


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "engine.hpp")):
        sys.exit("perfbench: simulator sources not found under " + os.path.join(ROOT, "src"))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=clean_env(),
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: driver exceeded %d s" % DRIVER_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: driver failed (exit %d)" % proc.returncode)
    for line in lines:
        print(line)


if __name__ == "__main__":
    main()
