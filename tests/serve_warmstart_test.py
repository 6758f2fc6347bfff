#!/usr/bin/env python3
"""The warm-start determinism contract (DESIGN.md §15), end to end.

Usage: tests/serve_warmstart_test.py MSQ_SERVED SOURCE_DIR

Sends tests/data/serve_warmstart.ndjson (all eight scaled workloads at
k = 8) through two msq-served processes with --batch=8. Process A
schedules cold and persists its leaf cache; process B starts on that
file. Every response of both must carry the pinned deterministic fields
of tests/data/serve_warmstart_expected.json, B must answer at leaf-cache
hit rate 1.0 with zero misses (preloaded entries count as loads, never
as misses), and each daemon's --metrics registry must read OPS_HASHED
ops folded into leaf-cache keys: hashing work is paid per request, warm
or cold.
"""

import json
import os
import subprocess
import sys
import tempfile

FIELDS = ("schedule_hash", "makespan", "critical_path", "lower_bound",
          "total_gates", "qubits")
OPS_HASHED = 176_056


def serve(msq_served, requests, cache, metrics):
    """@return the response objects of one daemon run, in order."""
    with open(requests) as stdin:
        out = subprocess.run(
            [msq_served, "--quiet", "--batch=8", "--threads=0",
             f"--cache={cache}", f"--metrics={metrics}"],
            stdin=stdin, capture_output=True, text=True, check=True)
    return [json.loads(line) for line in out.stdout.splitlines()]


def main(msq_served, source_dir):
    data = os.path.join(source_dir, "tests", "data")
    with open(os.path.join(data, "serve_warmstart_expected.json")) as f:
        expected = {row["workload"]: row for row in json.load(f)}
    requests = os.path.join(data, "serve_warmstart.ndjson")
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        cache = os.path.join(tmp, "warm.msqc")
        runs = {}
        for phase in ("cold", "warm"):
            metrics = os.path.join(tmp, f"{phase}_metrics.json")
            runs[phase] = serve(msq_served, requests, cache, metrics)
            with open(metrics) as f:
                hashed = next((m["value"] for m in json.load(f)["metrics"]
                               if m["name"] == "sched.leaf.ops_hashed"),
                              None)
            if hashed != OPS_HASHED:
                failures.append(f"{phase}: sched.leaf.ops_hashed {hashed}, "
                                f"expected {OPS_HASHED}")

    for phase, responses in runs.items():
        if [r.get("workload") for r in responses] != list(expected):
            failures.append(f"{phase}: answered "
                            f"{[r.get('workload') for r in responses]}")
            continue
        for r in responses:
            if not r["ok"]:
                failures.append(f"{phase} {r['id']}: {r['error']}")
                continue
            want = expected[r["workload"]]
            failures += [f"{phase} {r['workload']} {field}: {r[field]}, "
                         f"expected {want[field]}"
                         for field in FIELDS if r[field] != want[field]]
            cache_stats = r["cache"]
            if phase == "cold" and cache_stats["loads"] != 0:
                failures.append(f"cold {r['workload']}: loaded "
                                f"{cache_stats['loads']} entries")
            if phase == "warm" and not (cache_stats["misses"] == 0 and
                                        cache_stats["hit_rate"] == 1.0 and
                                        cache_stats["loads"] > 0):
                failures.append(f"warm {r['workload']}: cache "
                                f"{cache_stats}")

    for failure in failures:
        print(f"FAIL {failure}")
    if failures:
        return 1
    print(f"cold and warm daemons match {len(expected)} pinned responses")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
