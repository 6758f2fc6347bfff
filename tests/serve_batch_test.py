#!/usr/bin/env python3
"""What --batch=N keeps of a standalone run (DESIGN.md §15).

Usage: tests/serve_batch_test.py MSQ_SERVED SOURCE_DIR

Sends tests/data/serve_warmstart.ndjson (all eight scaled workloads at
k = 8) through msq-served twice, each on a fresh in-memory cache: once
at --batch=8 --threads=0, where concurrent requests share the leaf
cache, and once at --batch=1, one request at a time. Every INVARIANT
field must be equal in the two runs. The SHARED fields read the
daemon's shared cache counters, which depend on which concurrent
request reached a leaf first, so they are excluded; any other field
fails the test until it is classified.
"""

import json
import os
import subprocess
import sys

INVARIANT = ("id", "ok", "workload", "makespan", "total_gates", "qubits",
             "critical_path", "speedup", "lower_bound", "gap",
             "schedule_hash", "telemetry.metrics")
SHARED = ("cache", "telemetry.leaf_cache_hits",
          "telemetry.leaf_cache_misses", "wall_ms")


def serve(msq_served, requests, batch_flags):
    """@return the response objects of one daemon run, in order."""
    with open(requests) as stdin:
        out = subprocess.run([msq_served, "--quiet", *batch_flags],
                             stdin=stdin, capture_output=True, text=True,
                             check=True)
    return [json.loads(line) for line in out.stdout.splitlines()]


def fields(response):
    """@return {dotted name: value}, one level into nested objects
    other than the cache block."""
    flat = {}
    for key, value in response.items():
        if isinstance(value, dict) and key != "cache":
            flat.update({f"{key}.{k}": v for k, v in value.items()})
        else:
            flat[key] = value
    return flat


def main(msq_served, source_dir):
    requests = os.path.join(source_dir, "tests", "data",
                            "serve_warmstart.ndjson")
    batched = serve(msq_served, requests, ["--batch=8", "--threads=0"])
    alone = serve(msq_served, requests, ["--batch=1"])
    failures = []
    if len(batched) != len(alone) or not alone:
        failures.append(f"{len(batched)} batched vs {len(alone)} "
                        "standalone responses")
    for b, a in zip(batched, alone):
        b, a = fields(b), fields(a)
        label = a.get("id")
        if not a.get("ok"):
            failures.append(f"{label}: {a.get('error')}")
        for name in sorted(set(b) | set(a)):
            if name not in INVARIANT and name not in SHARED:
                failures.append(f"{label}: unclassified field {name}")
        failures += [f"{label} {name}: batched {b.get(name)!r}, "
                     f"standalone {a.get(name)!r}"
                     for name in INVARIANT
                     if name not in b or b.get(name) != a.get(name)]

    for failure in failures:
        print(f"FAIL {failure}")
    if failures:
        return 1
    print(f"{len(alone)} batched responses match the standalone run on "
          f"{len(INVARIANT)} fields")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
