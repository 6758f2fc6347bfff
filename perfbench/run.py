#!/usr/bin/env python3
"""Build the MSQ compile benchmark from this checkout and run one workload.

    python3 perfbench/run.py --workload compile-cold|serve-warm|sweep-arch \
        --seed N --seconds S --trace 0|1

Run from the checkout root. The first call configures and builds
perfbench/ (the library sources under src/ plus msq_perfbench) into
.bench_build/; later calls only rebuild what changed. Build output goes
to stderr, so the last line of stdout is the benchmark's JSON result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("compile-cold", "serve-warm", "sweep-arch")


def build():
    """Configure (once) and build msq_perfbench; return its path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    generated = ("Makefile", "build.ninja")
    if not any(os.path.exists(os.path.join(BUILD, f)) for f in generated):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "msq_perfbench"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))
    return os.path.join(BUILD, "msq_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    work = os.path.join(BUILD, "work")
    os.makedirs(work, exist_ok=True)
    sys.stdout.flush()
    done = subprocess.run([binary, "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(args.trace),
                           "--root", ROOT, "--work-dir", work])
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
