#!/usr/bin/env python3
"""Build the connectivity benchmark in Release and run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rmat-delete --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The driver is configured and built under .bench_build/perfbench (build
output goes to standard error), then run with the given arguments. Its
standard output, whose last line is the JSON result, and its exit code are
passed through unchanged.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "bdc_perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.stderr.write("perfbench: no library sources next to perfbench/\n")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "bdc_perfbench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    if not build():
        return 1
    sys.stdout.flush()
    return subprocess.run([BINARY] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
