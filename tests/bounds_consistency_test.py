#!/usr/bin/env python3
"""msq-verify bounds the program the toolflow schedules.

Usage: tests/bounds_consistency_test.py MSQ_VERIFY SOURCE_DIR

Runs `msq-verify --bounds --bounds-json` on all eight workloads and
asserts that every (workload, scheduler) program makespan equals the
total_cycles of the committed BENCH_compile_time.json "sequential" row,
which bench_compile_time measures through Toolflow::lowerWorkload.
"""

import json
import os
import subprocess
import sys
import tempfile

WORKLOADS = ("bf", "bwt", "cn", "grovers", "gse", "sha1", "shors", "tfp")


def main(msq_verify, source_dir):
    with open(os.path.join(source_dir, "BENCH_compile_time.json")) as f:
        expected = {(r["workload"], r["scheduler"]): r["total_cycles"]
                    for r in json.load(f)["rows"]
                    if r["config"] == "sequential"}
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "bounds.json")
        subprocess.run(
            [msq_verify, "--quiet", "--no-lint", "--bounds",
             f"--bounds-json={report}"] +
            [f"--workload={w}" for w in WORKLOADS],
            check=True)
        with open(report) as f:
            inputs = json.load(f)["inputs"]
    got = {(i["input"].removeprefix("workload:"), i["scheduler"]):
           i["program"]["makespan"] for i in inputs}

    bad = [f"{key}: msq-verify makespan {got.get(key)}, "
           f"BENCH_compile_time total_cycles {cycles}"
           for key, cycles in sorted(expected.items())
           if got.get(key) != cycles]
    bad += [f"{key}: no BENCH_compile_time sequential row"
            for key in sorted(got.keys() - expected.keys())]
    for what in bad:
        print(f"MISMATCH {what}")
    if bad:
        return 1
    print(f"{len(got)} (workload, scheduler) makespans match "
          "BENCH_compile_time.json")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
